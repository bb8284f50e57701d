package msgq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

var t0 = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func echoHandler(env proto.Envelope) proto.Envelope {
	reply := env
	reply.Kind = proto.KindReply
	return reply
}

func newTestNet() *Network {
	return NewNetwork(simtime.NewReal(), rng.New(1), nil)
}

func TestInprocRequestReply(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Bind("svc", echoHandler); err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("client", "svc")
	if err != nil {
		t.Fatal(err)
	}
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, proto.InferenceRequest{Prompt: "hi"})
	reply, err := c.Request(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != proto.KindReply || reply.From != "client" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestInprocDialUnknownAddr(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Dial("client", "nope"); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestInprocDoubleBind(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Bind("svc", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Bind("svc", echoHandler); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestInprocNilHandler(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Bind("svc", nil); err == nil {
		t.Fatal("Bind accepted nil handler")
	}
}

func TestInprocServerCloseFreesAddr(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	s, _ := n.Bind("svc", echoHandler)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := n.Bind("svc", echoHandler); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestInprocRequestAfterServerClose(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	s, _ := n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")
	_ = s.Close()
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
	if _, err := c.Request(context.Background(), env); err == nil {
		t.Fatal("Request succeeded against closed server")
	}
}

func TestInprocClientClose(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")
	_ = c.Close()
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
	if _, err := c.Request(context.Background(), env); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestInprocContextCancellation(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	block := make(chan struct{})
	_, _ = n.Bind("slow", func(env proto.Envelope) proto.Envelope {
		<-block
		return env
	})
	defer close(block)
	c, _ := n.Dial("client", "slow")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "slow", t0, struct{}{})
	if _, err := c.Request(ctx, env); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestInprocCancellableSlowPathCompletes pins the asynchronous REQ/REP
// path: a cancellable context routes the round trip through the helper
// goroutine instead of the inline fast path, and an uncancelled request
// must still return the same reply, pay the same modelled link latency,
// and leave the client reusable. This is the path every client task in
// the experiment harness takes (task contexts are cancellable), so it
// must stay pinned before any future inline-cancellation rework.
func TestInprocCancellableSlowPathCompletes(t *testing.T) {
	resolve := func(from, to string) LinkProfile {
		return LinkProfile{Latency: rng.ConstDuration(5 * time.Millisecond)}
	}
	n := NewNetwork(simtime.NewReal(), rng.New(1), resolve)
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if ctx.Done() == nil {
		t.Fatal("test context is not cancellable; would exercise the fast path")
	}
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, proto.InferenceRequest{Prompt: "slow path"})
	start := time.Now()
	reply, err := c.Request(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 9*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~10ms: slow path skipped the link model", el)
	}
	// The reply must be byte-identical to the fast path's.
	fast, err := c.Request(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := reply.WireBody()
	fb, _ := fast.WireBody()
	if reply.Kind != fast.Kind || reply.From != fast.From || string(rb) != string(fb) {
		t.Fatalf("slow-path reply %+v differs from fast-path reply %+v", reply, fast)
	}
	// Cancelling after completion must not poison later requests.
	cancel()
	if _, err := c.Request(context.Background(), env); err != nil {
		t.Fatalf("request after cancelled predecessor: %v", err)
	}
}

// TestInprocCancellableConcurrentCompletes floods the slow path from many
// goroutines under one shared cancellable (never cancelled) context —
// the experiment harness shape — and every request must complete.
func TestInprocCancellableConcurrentCompletes(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const clients, perClient = 16, 32
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := n.Dial("client", "svc")
			if err != nil {
				errs <- err
				return
			}
			env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
			for j := 0; j < perClient; j++ {
				if _, err := c.Request(ctx, env); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestInprocLatencyInjection(t *testing.T) {
	// With a 5ms one-way latency, a round trip on the real clock must take
	// at least ~10ms.
	resolve := func(from, to string) LinkProfile {
		return LinkProfile{Latency: rng.ConstDuration(5 * time.Millisecond)}
	}
	n := NewNetwork(simtime.NewReal(), rng.New(1), resolve)
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
	start := time.Now()
	if _, err := c.Request(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 9*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~10ms with injected latency", el)
	}
}

func TestInprocBandwidthModel(t *testing.T) {
	// 1 KiB/s bandwidth: a ~1 KiB body should add ~1s per hop on a scaled
	// clock (1000x: ~1ms real per hop).
	resolve := func(from, to string) LinkProfile {
		return LinkProfile{BytesPerSec: 1024}
	}
	n := NewNetwork(simtime.NewScaled(1000, t0), rng.New(1), resolve)
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")
	big := make([]byte, 1024)
	for i := range big {
		big[i] = 'a'
	}
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, string(big))
	start := time.Now()
	if _, err := c.Request(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < time.Millisecond {
		t.Fatalf("bandwidth-limited round trip took %v real, want >= ~2ms", el)
	}
}

func TestInprocConcurrentRequests(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	_, _ = n.Bind("svc", func(env proto.Envelope) proto.Envelope {
		mu.Lock()
		seen[env.ID] = true
		mu.Unlock()
		return echoHandler(env)
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("client", "svc")
			if err != nil {
				t.Error(err)
				return
			}
			env, _ := proto.NewEnvelope(proto.KindRequest, uint64(i), "client", "svc", t0, struct{}{})
			if _, err := c.Request(context.Background(), env); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 32 {
		t.Fatalf("server saw %d distinct requests, want 32", len(seen))
	}
}

func TestNetworkCloseShutsEndpoints(t *testing.T) {
	n := newTestNet()
	_, _ = n.Bind("svc", echoHandler)
	_, _ = n.BindPub("pub")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Bind("svc2", echoHandler); !errors.Is(err, ErrClosed) {
		t.Fatalf("Bind after Close: %v", err)
	}
	if _, err := n.Dial("c", "svc"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Dial after Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal("double Close errored:", err)
	}
}

func TestPubSubTopicFiltering(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	p, err := n.BindPub("updates")
	if err != nil {
		t.Fatal(err)
	}
	subA, _ := n.Subscribe("a", "updates", 8, "task")
	subAll, _ := n.Subscribe("b", "updates", 8)
	env, _ := proto.NewEnvelope(proto.KindStateUpdate, 1, "updater", "", t0, proto.StateUpdate{State: "DONE"})
	p.Publish("task", env)
	p.Publish("service", env)

	recvN := func(sub *Subscription, want int) int {
		got := 0
		deadline := time.After(2 * time.Second)
		for got < want {
			select {
			case <-sub.C:
				got++
			case <-deadline:
				return got
			}
		}
		// drain any extra
		select {
		case <-sub.C:
			got++
		case <-time.After(50 * time.Millisecond):
		}
		return got
	}
	if got := recvN(subAll, 2); got != 2 {
		t.Fatalf("all-topics subscriber got %d messages, want 2", got)
	}
	if got := recvN(subA, 1); got != 1 {
		t.Fatalf("topic subscriber got %d messages, want 1", got)
	}
}

func TestPubSubCancel(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	p, _ := n.BindPub("updates")
	sub, _ := n.Subscribe("a", "updates", 8)
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.C; ok {
		t.Fatal("cancelled subscription channel not closed")
	}
	env, _ := proto.NewEnvelope(proto.KindStateUpdate, 1, "u", "", t0, struct{}{})
	p.Publish("x", env) // must not panic
}

// TestPubSubSubscribed: Subscribed answers what Publish would do with the
// topic now, through subscription, cancellation and close.
func TestPubSubSubscribed(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	p, _ := n.BindPub("updates")
	want := func(when string, task, service bool) {
		t.Helper()
		if got := [2]bool{p.Subscribed("task"), p.Subscribed("service")}; got != [2]bool{task, service} {
			t.Fatalf("%s: Subscribed(task, service) = %v, want %v %v", when, got, task, service)
		}
	}
	want("no subscriber", false, false)
	subTask, _ := n.Subscribe("a", "updates", 8, "task")
	want("one topic", true, false)
	subAll, _ := n.Subscribe("b", "updates", 8)
	want("every topic", true, true)
	subAll.Cancel()
	want("every-topic subscriber cancelled", true, false)
	subTask.Cancel()
	want("both cancelled", false, false)
	_, _ = n.Subscribe("c", "updates", 8)
	_ = p.Close()
	want("publisher closed", false, false)
}

func TestPubSubSubscribeUnknown(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Subscribe("a", "nope", 1); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestPubSubPublisherClose(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	p, _ := n.BindPub("updates")
	sub, _ := n.Subscribe("a", "updates", 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("subscriber channel not closed on publisher close")
	}
	if _, err := n.BindPub("updates"); err != nil {
		t.Fatalf("rebind pub after close: %v", err)
	}
}

func TestTCPRequestReply(t *testing.T) {
	s, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialTCP(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env, _ := proto.NewEnvelope(proto.KindRequest, 0, "client", "svc", t0, proto.InferenceRequest{Prompt: "over tcp"})
	reply, err := c.Request(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	var body proto.InferenceRequest
	if err := reply.Decode(proto.KindReply, &body); err != nil {
		t.Fatal(err)
	}
	if body.Prompt != "over tcp" {
		t.Fatalf("echoed prompt = %q", body.Prompt)
	}
}

func TestTCPConcurrentRequestsMuxed(t *testing.T) {
	// One connection, many in-flight requests with varying handler delays:
	// the ID mux must route every reply to its caller.
	s, err := ListenTCP("127.0.0.1:0", func(env proto.Envelope) proto.Envelope {
		time.Sleep(time.Duration(env.ID%5) * time.Millisecond)
		return echoHandler(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialTCP(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := proto.InferenceRequest{RequestUID: string(rune('A' + i%26))}
			env, _ := proto.NewEnvelope(proto.KindRequest, 0, "c", "s", t0, body)
			reply, err := c.Request(context.Background(), env)
			if err != nil {
				t.Error(err)
				return
			}
			var got proto.InferenceRequest
			if err := reply.Decode(proto.KindReply, &got); err != nil {
				t.Error(err)
				return
			}
			if got.RequestUID != body.RequestUID {
				t.Errorf("reply crossed: got %q want %q", got.RequestUID, body.RequestUID)
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	block := make(chan struct{})
	s, _ := ListenTCP("127.0.0.1:0", func(env proto.Envelope) proto.Envelope {
		<-block
		return env
	})
	c, _ := DialTCP(s.Addr())
	defer c.Close()
	errc := make(chan error, 1)
	go func() {
		env, _ := proto.NewEnvelope(proto.KindRequest, 0, "c", "s", t0, struct{}{})
		_, err := c.Request(context.Background(), env)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	close(block)
	_ = s.Close()
	select {
	case <-errc:
		// either a reply (if the handler won the race) or an error is fine;
		// the point is the client does not hang.
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server close")
	}
}

func TestTCPClientCloseRejectsRequests(t *testing.T) {
	s, _ := ListenTCP("127.0.0.1:0", echoHandler)
	defer s.Close()
	c, _ := DialTCP(s.Addr())
	_ = c.Close()
	_ = c.Close() // idempotent
	env, _ := proto.NewEnvelope(proto.KindRequest, 0, "c", "s", t0, struct{}{})
	if _, err := c.Request(context.Background(), env); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("DialTCP to dead port succeeded")
	}
}

func TestTCPContextCancellation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, _ := ListenTCP("127.0.0.1:0", func(env proto.Envelope) proto.Envelope {
		<-block
		return env
	})
	defer s.Close()
	c, _ := DialTCP(s.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	env, _ := proto.NewEnvelope(proto.KindRequest, 0, "c", "s", t0, struct{}{})
	if _, err := c.Request(ctx, env); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestInprocEchoProperty(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")
	f := func(prompt string, id uint64) bool {
		env, err := proto.NewEnvelope(proto.KindRequest, id, "client", "svc", t0, proto.InferenceRequest{Prompt: prompt})
		if err != nil {
			return false
		}
		reply, err := c.Request(context.Background(), env)
		if err != nil {
			return false
		}
		var got proto.InferenceRequest
		return reply.Decode(proto.KindReply, &got) == nil && got.Prompt == prompt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package msgq

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPCancelLosesToReply pins the reply-wins interleaving of the
// cancel/reply race: once the read loop's CAS has moved the waiter to
// delivered, a racing cancel must collect and return that reply instead of
// dropping it (white-box at the waiter-table level, where the interleaving
// can be forced deterministically).
func TestTCPCancelLosesToReply(t *testing.T) {
	c := dialEcho(t)
	w, id, slot, err := c.acquire(proto.Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	// The reply lands first: deliver wins the CAS.
	c.deliver(proto.Envelope{Kind: proto.KindReply, ID: id, Body: []byte(`{"x":1}`)}, nil)
	if w.state.Load() != waiterDelivered {
		t.Fatalf("state = %d, want delivered", w.state.Load())
	}
	// The cancel path now loses the CAS and must surface the reply.
	if w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
		t.Fatal("cancel CAS won against a delivered reply")
	}
	reply, err := c.collect(slot, w)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if string(reply.Body) != `{"x":1}` {
		t.Fatalf("reply body = %q", reply.Body)
	}
	if got := c.LateReplies(); got != 0 {
		t.Fatalf("LateReplies = %d, want 0 (reply was consumed)", got)
	}
}

// TestTCPReplyLandsInWonExchange pins where a reply body goes on the
// client (white-box at the waiter-table level): into the exchange of the
// request whose waiter it won, sharing that request's UID string and
// dropping its Body; never into the exchange of a request that withdrew
// first, even before its slot is released; and, for a KindError reply,
// into a copy of the body. A released slot holds no request.
func TestTCPReplyLandsInWonExchange(t *testing.T) {
	c := dialEcho(t)
	request := func(uid string) proto.Envelope {
		return proto.NewRequest(0, "cli", "srv", proto.InferenceRequest{RequestUID: uid, ClientUID: "cli", Model: "noop", SentAt: t0})
	}
	replyHalf := func(req proto.Envelope) proto.InferenceReply { // the half a reply to req shares
		req.Kind = proto.KindReply
		r, err := req.DecodeReply()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := proto.InferenceReply{RequestUID: "cli.req.000001", ServiceUID: "svc.0", Model: "noop", Text: "ok", OutputTokens: 1}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	checkReleased := func(w *waiter) {
		t.Helper()
		if !reflect.ValueOf(w.req).IsZero() {
			t.Errorf("a released slot still holds its request: %+v", w.req)
		}
	}

	req := request(want.RequestUID)
	w, id, slot, err := c.acquire(req)
	if err != nil {
		t.Fatal(err)
	}
	c.deliver(proto.Envelope{Kind: proto.KindReply, ID: id, Body: bytes.Clone(body)}, nil)
	got, err := c.collect(slot, w)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := got.DecodeReply(); err != nil || !reflect.DeepEqual(r, want) || got.Body != nil {
		t.Errorf("won reply decodes to %+v, %v (body %q), want %+v", r, err, got.Body, want)
	}
	if r := replyHalf(req); unsafe.StringData(r.RequestUID) != unsafe.StringData(want.RequestUID) {
		t.Errorf("reply UID %q does not reuse the request's string", r.RequestUID)
	}
	checkReleased(w)
	req.Release()

	req = request(want.RequestUID)
	w, id, slot, err = c.acquire(req)
	if err != nil {
		t.Fatal(err)
	}
	if !w.state.CompareAndSwap(waiterArmed, waiterCancelled) { // the requester withdraws
		t.Fatal("cancel CAS lost with no reply in flight")
	}
	c.deliver(proto.Envelope{Kind: proto.KindReply, ID: id, Body: bytes.Clone(body)}, nil)
	if r := replyHalf(req); !reflect.ValueOf(r).IsZero() || c.LateReplies() != 1 {
		t.Errorf("a reply after the cancel wrote %+v into the withdrawn exchange (late replies %d)", r, c.LateReplies())
	}
	c.release(slot, w)
	checkReleased(w)

	req = request(want.RequestUID)
	w, id, slot, err = c.acquire(req)
	if err != nil {
		t.Fatal(err)
	}
	errBody := []byte(`{"origin":"svc.0","msg":"full"}`)
	c.deliver(proto.Envelope{Kind: proto.KindError, ID: id, Body: errBody}, nil)
	copy(errBody, "xxxxxxxxxxxx") // the read buffer's next frame
	got, err = c.collect(slot, w)
	if err != nil {
		t.Fatal(err)
	}
	var eb proto.ErrorBody
	if err := got.Decode(proto.KindError, &eb); err != nil || eb.Msg != "full" {
		t.Errorf("error reply decodes to %+v, %v: its body was not copied", eb, err)
	}
	if r := replyHalf(req); !reflect.ValueOf(r).IsZero() {
		t.Errorf("an error reply wrote %+v into the exchange", r)
	}
	checkReleased(w)
}

// TestTCPStaleGenerationReplyIsLate pins the generation check (white-box
// at the waiter-table level): a reply to a withdrawn request that lands
// after its slot was handed to a new request is counted late and leaves the
// new requester armed, which then takes its own reply.
func TestTCPStaleGenerationReplyIsLate(t *testing.T) {
	c := dialEcho(t)
	w, stale, slot, err := c.acquire(proto.Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	if !w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
		t.Fatal("cancel CAS lost with no reply in flight")
	}
	c.release(slot, w)
	w2, id, slot2, err := c.acquire(proto.Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	if w2 != w || slot2 != slot || id == stale {
		t.Fatalf("reacquire got slot %d id %#x, want slot %d under a new generation of id %#x", slot2, id, slot, stale)
	}
	c.deliver(proto.Envelope{Kind: proto.KindReply, ID: stale, Body: []byte(`{"x":0}`)}, nil)
	if got := c.LateReplies(); got != 1 {
		t.Fatalf("LateReplies = %d after a stale-generation reply, want 1", got)
	}
	if st := w.state.Load(); st != waiterArmed {
		t.Fatalf("state = %d after a stale-generation reply, want armed", st)
	}
	c.deliver(proto.Envelope{Kind: proto.KindReply, ID: id, Body: []byte(`{"x":1}`)}, nil)
	reply, err := c.collect(slot, w)
	if err != nil || string(reply.Body) != `{"x":1}` {
		t.Fatalf("collect = %q, %v; want the current generation's reply", reply.Body, err)
	}
	if got := c.LateReplies(); got != 1 {
		t.Fatalf("LateReplies = %d, want 1", got)
	}
}

// TestTCPReplyPastTableIsLate: a reply whose ID names a slot the table
// never handed out is counted late, without a panic.
func TestTCPReplyPastTableIsLate(t *testing.T) {
	c := dialEcho(t)
	w, id, slot, err := c.acquire(proto.Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range []uint64{id + 1, id | 0xffffffff, 1<<32 | maxInFlight} {
		c.deliver(proto.Envelope{Kind: proto.KindReply, ID: bad}, nil)
		if got := c.LateReplies(); got != uint64(i+1) {
			t.Fatalf("LateReplies = %d after reply id %#x, want %d", got, bad, i+1)
		}
	}
	if st := w.state.Load(); st != waiterArmed {
		t.Fatalf("state = %d, want the only slot still armed", st)
	}
	c.deliver(proto.Envelope{Kind: proto.KindReply, ID: id}, nil)
	if _, err := c.collect(slot, w); err != nil {
		t.Fatal(err)
	}
}

// TestTCPInFlightBound: with every slot armed, acquire refuses with the
// bound in its error and starts no goroutine; a released slot is handed
// out again.
func TestTCPInFlightBound(t *testing.T) {
	c := dialEcho(t)
	var w *waiter
	var slot int
	for i := 0; i < maxInFlight; i++ {
		var err error
		if w, _, slot, err = c.acquire(proto.Envelope{}); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	before := runtime.NumGoroutine()
	_, _, _, err := c.acquire(proto.Envelope{})
	if err == nil || err.Error() != "msgq: over 65536 requests in flight" {
		t.Fatalf("acquire past the bound: %v", err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d → %d across a refused acquire", before, after)
	}
	if len(c.slots) != maxInFlight {
		t.Fatalf("table holds %d slots, want %d", len(c.slots), maxInFlight)
	}
	w.state.Store(waiterCancelled)
	c.release(slot, w)
	if _, _, got, err := c.acquire(proto.Envelope{}); err != nil || got != slot {
		t.Fatalf("acquire after a release = slot %d, %v; want slot %d", got, err, slot)
	}
}

// dialEcho returns a client connected to an echo server, both closed when
// the test ends.
func dialEcho(t *testing.T) *TCPClient {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestTCPCancelBeatsReply pins the cancel-wins interleaving end to end:
// Request returns ctx.Err() while the handler still runs, and the reply,
// when it lands, is counted by LateReplies instead of vanishing.
func TestTCPCancelBeatsReply(t *testing.T) {
	release := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(env proto.Envelope) proto.Envelope {
		<-release
		return echoHandler(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "srv", t0, proto.InferenceRequest{Prompt: "p"})
		_, err := c.Request(ctx, env)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // request reaches the blocked handler
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Request after cancel: %v, want context.Canceled", err)
	}
	close(release)
	waitFor(t, "late reply accounting", func() bool { return c.LateReplies() == 1 })
}

// TestTCPServerCloseDropsLateReplies pins the S2 contract: a handler still
// running at Close writes its reply into a torn-down connection; the write
// is refused cleanly (no panic, no double close) and counted.
func TestTCPServerCloseDropsLateReplies(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(env proto.Envelope) proto.Envelope {
		close(entered)
		<-release
		return echoHandler(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errCh := make(chan error, 1)
	go func() {
		env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "srv", t0, proto.InferenceRequest{Prompt: "p"})
		_, err := c.Request(context.Background(), env)
		errCh <- err
	}()
	<-entered
	if err := srv.Close(); err != nil { // must not block on the stuck handler
		t.Fatalf("Close: %v", err)
	}
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("Request after server close: %v, want ErrClosed", err)
	}
	close(release)
	waitFor(t, "dropped reply accounting", func() bool { return srv.DroppedReplies() == 1 })
}

// TestTCPServerGarbageTearsConn sends raw garbage at the server: the
// connection must be torn down without a panic, and the listener must keep
// serving fresh connections.
func TestTCPServerGarbageTearsConn(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Plausible length prefix, garbage payload.
	if _, err := raw.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept the connection alive after a corrupt frame")
	}
	raw.Close()

	// The server survives and serves the next connection.
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "srv", t0, proto.InferenceRequest{Prompt: "ok"})
	if _, err := c.Request(context.Background(), env); err != nil {
		t.Fatalf("request after garbage conn: %v", err)
	}
}

// TestTCPClientGarbageReplyFailsTyped points the client at a server that
// answers with a corrupt frame: pending requests fail with the typed frame
// error, not a hang or panic.
func TestTCPClientGarbageReplyFailsTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		_, _ = conn.Write([]byte{0, 0, 0, 2, 0xff, 0xff}) // bad version
	}()

	c, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "srv", t0, proto.InferenceRequest{Prompt: "p"})
	if _, err := c.Request(context.Background(), env); !errors.Is(err, proto.ErrBadFrame) {
		t.Fatalf("Request: %v, want proto.ErrBadFrame", err)
	}
}

// TestTCPWorkerServerConcurrentLoad drives more concurrent requests than
// the per-connection worker bound, multiplexed over one connection: every
// reply must come back matched to its own request.
func TestTCPWorkerServerConcurrentLoad(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const senders = 2 * connWorkers
	done := make(chan error, senders)
	for i := 0; i < senders; i++ {
		go func(i int) {
			for j := 0; j < 50; j++ {
				env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "srv", t0,
					proto.InferenceRequest{Prompt: "p", MaxTokens: i*100 + j})
				reply, err := c.Request(context.Background(), env)
				if err != nil {
					done <- err
					return
				}
				var req proto.InferenceRequest
				if err := reply.Decode(proto.KindReply, &req); err != nil {
					done <- err
					return
				}
				if req.MaxTokens != i*100+j {
					done <- fmt.Errorf("reply carries MaxTokens %d, want %d", req.MaxTokens, i*100+j)
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < senders; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// tcpNetwork returns a network whose Bind listens on loopback TCP.
func tcpNetwork(t *testing.T, clock simtime.Clock) *Network {
	t.Helper()
	n := NewNetwork(clock, rng.New(1).Derive("net"), nil)
	if err := n.SetTransport(TransportTCP); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestNetworkBindTCP exercises the transport seam: a TCP bind is
// reachable by logical name in-process and by its published tcp:// address
// from a completely separate Network (standing in for another process).
func TestNetworkBindTCP(t *testing.T) {
	clock := simtime.NewReal()
	n := tcpNetwork(t, clock)
	defer n.Close()

	srv, err := n.Bind("plat/node/svc", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if len(addr) < len(tcpScheme) || addr[:len(tcpScheme)] != tcpScheme {
		t.Fatalf("TCP bind Addr = %q, want %s prefix", addr, tcpScheme)
	}

	// Same-process dial by logical name.
	c1, err := n.Dial("cli", "plat/node/svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "svc", t0, proto.InferenceRequest{Prompt: "a"})
	if _, err := c1.Request(context.Background(), env); err != nil {
		t.Fatalf("logical-name dial request: %v", err)
	}

	// Cross-process dial by socket address via an unrelated Network.
	other := NewNetwork(clock, rng.New(2).Derive("net"), nil)
	defer other.Close()
	c2, err := other.Dial("cli2", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Request(context.Background(), env); err != nil {
		t.Fatalf("tcp:// dial request: %v", err)
	}

	// Double bind of the logical name is refused.
	if _, err := n.Bind("plat/node/svc", echoHandler); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double bind: %v, want ErrAddrInUse", err)
	}
	// Closing frees the logical name.
	if err := srv.Close(); err != nil {
		t.Fatalf("bind close: %v", err)
	}
	if _, err := n.Bind("plat/node/svc", echoHandler); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestSetTransport(t *testing.T) {
	n := NewNetwork(simtime.NewReal(), rng.New(1).Derive("net"), nil)
	defer n.Close()
	if err := n.SetTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if err := n.SetTransport(TransportTCP); err != nil {
		t.Fatal(err)
	}
	// Binds now land on TCP.
	srv, err := n.Bind("a/b/c", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if addr := srv.Addr(); addr[:len(tcpScheme)] != tcpScheme {
		t.Fatalf("default bind Addr = %q, want TCP", addr)
	}
}

// TestSetTransportNames: the empty name and the two transport constants are
// accepted, matched exactly; anything else is refused and leaves the
// network's transport as it was.
func TestSetTransportNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"", true},
		{transportInproc, true},
		{TransportTCP, true},
		{"TCP", false},
		{"inproc ", false},
		{"udp", false},
	} {
		t.Run(fmt.Sprintf("%q", tc.name), func(t *testing.T) {
			n := NewNetwork(simtime.NewReal(), rng.New(1).Derive("net"), nil)
			defer n.Close()
			err := n.SetTransport(tc.name)
			if (err == nil) != tc.ok {
				t.Fatalf("SetTransport(%q) = %v, want ok=%v", tc.name, err, tc.ok)
			}
			if tc.ok {
				return
			}
			// A refused name changed nothing: the bind stays inproc.
			srv, err := n.Bind("a/b/c", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if addr := srv.Addr(); addr != "a/b/c" {
				t.Fatalf("bind Addr = %q after a refused SetTransport, want the inproc name", addr)
			}
		})
	}
}

// TestBindTransportChoice pins where an endpoint lands: on the network's
// transport. An inproc bind publishes its logical address, a TCP bind the
// dialable tcp:// form; both answer a request dialled by the logical name.
func TestBindTransportChoice(t *testing.T) {
	for _, network := range []string{"", transportInproc, TransportTCP} {
		t.Run(fmt.Sprintf("net=%q", network), func(t *testing.T) {
			n := NewNetwork(simtime.NewReal(), rng.New(1).Derive("net"), nil)
			defer n.Close()
			if err := n.SetTransport(network); err != nil {
				t.Fatal(err)
			}
			srv, err := n.Bind("plat/node/svc", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			wantTCP := network == TransportTCP
			if gotTCP := strings.HasPrefix(srv.Addr(), tcpScheme); gotTCP != wantTCP {
				t.Fatalf("bind Addr = %q, want TCP=%v", srv.Addr(), wantTCP)
			}
			if !wantTCP && srv.Addr() != "plat/node/svc" {
				t.Fatalf("inproc bind Addr = %q, want the logical address", srv.Addr())
			}
			c, err := n.Dial("cli", "plat/node/svc")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			env, _ := proto.NewEnvelope(proto.KindRequest, 0, "cli", "svc", t0, proto.InferenceRequest{Prompt: "q"})
			if _, err := c.Request(context.Background(), env); err != nil {
				t.Fatalf("request by logical name: %v", err)
			}
		})
	}
}

// TestNetworkCloseClosesTCPBinds ensures Close tears TCP listeners down
// with the rest of the endpoints.
func TestNetworkCloseClosesTCPBinds(t *testing.T) {
	n := tcpNetwork(t, simtime.NewReal())
	srv, err := n.Bind("x/y/z", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	real := srv.Addr()[len(tcpScheme):]
	if _, err := net.DialTimeout("tcp", real, time.Second); err == nil {
		t.Fatal("TCP listener survived Network.Close")
	}
}

// TestNetworkBindRacingClose: a TCP Bind that a Network.Close overtakes
// either fails with ErrClosed or hands back a listener that Close shut:
// once Close has returned, nothing the network bound accepts a
// connection. Each round starts Close a few microseconds later, to land
// it at every point of Bind's listen.
func TestNetworkBindRacingClose(t *testing.T) {
	for round := 0; round < 300; round++ {
		n := tcpNetwork(t, simtime.NewReal())
		bound := make(chan Server, 1)
		go func() {
			srv, err := n.Bind("x/y/z", echoHandler)
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("round %d: Bind: %v", round, err)
			}
			bound <- srv
		}()
		for start := time.Now(); time.Since(start) < time.Duration(round%80)*time.Microsecond; {
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		srv := <-bound
		if srv == nil {
			continue
		}
		if conn, err := net.DialTimeout("tcp", srv.Addr()[len(tcpScheme):], time.Second); err == nil {
			conn.Close()
			_ = srv.Close()
			t.Fatalf("round %d: a listener bound as Close ran still accepts after Close returned", round)
		}
	}
}

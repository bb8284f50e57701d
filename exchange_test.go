package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/msgq"
	"repro/internal/proto"
	"repro/internal/restapi"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/simtime"
)

// gateBackend answers a request with as many output tokens as it asked for,
// the text drawn from its own stream. A "block" prompt waits for the gate
// (after saying so on entered); an "open" prompt opens it.
type gateBackend struct {
	src     *rng.Source
	entered chan struct{}
	gate    chan struct{}
}

func (b *gateBackend) Name() string        { return "gate" }
func (b *gateBackend) Load() time.Duration { return 0 }

func (b *gateBackend) Infer(prompt string, maxTokens int) llm.Result {
	switch prompt {
	case "block":
		gate := b.gate // read before entered: the test sets the next round's gate after it
		b.entered <- struct{}{}
		<-gate
	case "open":
		close(b.gate)
	}
	return llm.Result{TextFrom: b.src.Skip(maxTokens), PromptTokens: len(prompt), OutputTokens: maxTokens}
}

func (b *gateBackend) InferBatch(items []llm.BatchItem) time.Duration {
	for i := range items {
		items[i].Result = b.Infer(items[i].Prompt, items[i].MaxTokens)
	}
	return 0
}

// gateServer starts a two-worker server of a gateBackend on the real clock
// with no parse overhead.
func gateServer(t *testing.T, clock simtime.Clock) (*serving.Server, *gateBackend) {
	t.Helper()
	b := &gateBackend{src: rng.New(11), entered: make(chan struct{}, 1)}
	srv, err := serving.New(serving.Config{
		UID: "svc.0", Backend: b, Clock: clock, Src: rng.New(7),
		Concurrency: 2, ParseOverhead: rng.ConstDuration(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, b
}

// dialOn binds srv on a fresh network of clock whose links all have
// latency, and dials it as client.0.
func dialOn(t *testing.T, clock simtime.Clock, srv *serving.Server, transport string, latency rng.DurationDist) *service.Client {
	t.Helper()
	net := msgq.NewNetwork(clock, rng.New(3), func(_, _ string) rng.DurationDist { return latency })
	t.Cleanup(func() { _ = net.Close() })
	if transport != "" {
		if err := net.SetTransport(transport); err != nil {
			t.Fatal(err)
		}
	}
	bind, err := net.Bind("svc.0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := service.Dial(net, clock, "client.0", proto.Endpoint{ServiceUID: "svc.0", Model: "gate", Address: bind.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestAbandonedExchangeRace: a request abandoned on ctx expiry while its
// handler is blocked may still be answered, so its client must not recycle
// its exchange, and no late answer may land in another request's. In
// process the handler answers into the abandoned exchange itself; over TCP
// the client's read loop decodes a reply into its request's exchange only
// once it has won that request's pending slot, which an abandoned request
// gave up. Each round abandons one request, sends as many plain requests as
// the round's number, then one whose backend call lets the abandoned
// handler answer while the new reply is on its way back (a 2 ms link each
// way in process): had the first exchange been recycled into a later
// request, or the late reply been decoded into whichever request holds the
// abandoned one's slot (over TCP the next request reuses it), a reply would
// carry another request's UID or tokens.
// Every reply must carry its own request UID and output tokens, through the
// rounds and the plain requests after them.
func TestAbandonedExchangeRace(t *testing.T) {
	for _, tr := range []struct {
		name, transport string
		latency         rng.DurationDist
		rounds          int
	}{
		{"inproc", "", rng.ConstDuration(2 * time.Millisecond), 4},
		{"tcp", msgq.TransportTCP, rng.DurationDist{}, 33},
	} {
		t.Run(tr.name, func(t *testing.T) {
			clock := simtime.NewReal()
			srv, b := gateServer(t, clock)
			cl := dialOn(t, clock, srv, tr.transport, tr.latency)
			seq := 0
			infer := func(ctx context.Context, prompt string, tokens int) error {
				seq++
				reply, _, err := cl.Infer(ctx, prompt, tokens)
				if err != nil {
					return err
				}
				if want := fmt.Sprintf("client.0.req.%06d", seq); reply.RequestUID != want || reply.OutputTokens != tokens {
					t.Errorf("request %d (%d tokens) got the reply of %s (%d tokens)", seq, tokens, reply.RequestUID, reply.OutputTokens)
				}
				return nil
			}
			for round := 0; round < tr.rounds; round++ {
				b.gate = make(chan struct{})
				ctx, cancel := context.WithCancel(context.Background())
				abandoned := make(chan error, 1)
				go func() { abandoned <- infer(ctx, "block", 100+round) }()
				<-b.entered
				cancel()
				if err := <-abandoned; !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: abandoned request returned %v, want context.Canceled", round, err)
				}
				for i := 0; i < round; i++ {
					if err := infer(context.Background(), "plain", 200+i); err != nil {
						t.Fatal(err)
					}
				}
				if err := infer(context.Background(), "open", 1+round); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				if err := infer(context.Background(), "plain", 10+i); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRepliesAgreeAcrossTransports: the same requests to the same server
// read the same replies over an in-process link, over TCP and over REST,
// where both encoders spell the drawn text. Timing is the real clock's and
// differs; REST names its requests its own way.
func TestRepliesAgreeAcrossTransports(t *testing.T) {
	clock := simtime.NewReal()
	type replyOf struct {
		uid, svc, model, words string
		prompt, output         int
	}
	run := func(dial func(*serving.Server) service.Caller) []replyOf {
		srv, _ := gateServer(t, clock)
		cl := dial(srv)
		var out []replyOf
		for i, prompt := range []string{"a", "a prompt", "", "another prompt"} {
			r, _, err := cl.Infer(context.Background(), prompt, 3*i+1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, replyOf{r.RequestUID, r.ServiceUID, r.Model, r.Words(), r.PromptTokens, r.OutputTokens})
		}
		return out
	}
	inproc := run(func(srv *serving.Server) service.Caller {
		return dialOn(t, clock, srv, "", rng.ConstDuration(time.Millisecond))
	})
	tcp := run(func(srv *serving.Server) service.Caller {
		return dialOn(t, clock, srv, msgq.TransportTCP, rng.DurationDist{})
	})
	rest := run(func(srv *serving.Server) service.Caller {
		gw, err := restapi.NewGateway(srv, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gw.Close() })
		c, err := restapi.NewCaller(gw.Endpoint(), clock)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	for i := range inproc {
		if inproc[i].words == "" {
			t.Fatalf("reply %d spells no text: %+v", i, inproc[i])
		}
		if tcp[i] != inproc[i] {
			t.Errorf("reply %d: tcp %+v, in-process %+v", i, tcp[i], inproc[i])
		}
		want := inproc[i]
		want.uid = fmt.Sprintf("svc.0.rest.%06d", i+1)
		if rest[i] != want {
			t.Errorf("reply %d: rest %+v, in-process %+v", i, rest[i], want)
		}
	}
}

// TestForeignWriterRequest: a request body that is valid JSON in a shape
// the hand codec declines, a foreign writer's spaced keys, reaches a TCP
// server running serving's handler with no exchange. The handler reads it
// through encoding/json and answers into an exchange of the answer's own,
// and msgq's server sends that answer as it sends any other. Its reply
// carries the fields of the reply to the canonical body, sent to an
// identical server.
func TestForeignWriterRequest(t *testing.T) {
	req := proto.InferenceRequest{RequestUID: "client.0.req.000001", ClientUID: "client.0", Model: "gate",
		Prompt: "a prompt", MaxTokens: 5}
	canonical, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	spaced, err := json.MarshalIndent(req, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for body, took := range map[string]bool{string(canonical): true, string(spaced): false} {
		e := proto.Envelope{Kind: proto.KindRequest, Body: []byte(body)}
		if e.DecodeExchange(proto.Envelope{}, nil) != took {
			t.Fatalf("hand codec took %s: %v, want %v", body, !took, took)
		}
		e.Release()
	}
	send := func(body []byte) proto.InferenceReply {
		srv, _ := gateServer(t, simtime.NewReal())
		ln, err := msgq.ListenTCP("127.0.0.1:0", srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		cl, err := msgq.DialTCP(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		out, err := cl.Request(context.Background(), proto.Envelope{Kind: proto.KindRequest, From: "client.0", To: "svc.0", Body: body})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := out.DecodeReply()
		if err != nil {
			t.Fatalf("reply to %s: %v", body, err)
		}
		return rep
	}
	want, got := send(canonical), send(spaced)
	if want.RequestUID != req.RequestUID || want.OutputTokens != req.MaxTokens || want.Text == "" {
		t.Fatalf("reply to the canonical body: %+v", want)
	}
	if got.RequestUID != want.RequestUID || got.ServiceUID != want.ServiceUID || got.Model != want.Model ||
		got.Text != want.Text || got.PromptTokens != want.PromptTokens || got.OutputTokens != want.OutputTokens || got.Err != want.Err {
		t.Errorf("reply to the foreign body %+v, to the canonical body %+v", got, want)
	}
}

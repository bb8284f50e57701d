package restapi

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
)

func TestCallerRejectsNonRESTEndpoint(t *testing.T) {
	_, err := NewCaller(proto.Endpoint{Protocol: "msgq"}, simtime.NewReal())
	if err == nil {
		t.Fatal("NewCaller accepted msgq endpoint")
	}
}

// TestRestRequestID pins the spelling of a REST request ID to
// fmt.Sprintf's "%s.rest.%06d": padded below a million, all digits from
// it on, and one allocation.
func TestRestRequestID(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want string
	}{
		{1, "svc.0.rest.000001"},
		{999_999, "svc.0.rest.999999"},
		{1_000_000, "svc.0.rest.1000000"},
	} {
		if got := restRequestID("svc.0", c.n); got != c.want || got != fmt.Sprintf("%s.rest.%06d", "svc.0", c.n) {
			t.Errorf("restRequestID(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = restRequestID("svc.0", 42) }); n != 1 {
		t.Errorf("restRequestID allocates %.1f objects, want 1", n)
	}
}

func TestCallerInferRoundTrip(t *testing.T) {
	g, _ := newGateway(t, "llama-8b")
	clock := simtime.NewScaled(1000, origin)
	caller, err := NewCaller(g.Endpoint(), clock)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	reply, bd, err := caller.Infer(context.Background(), "compare signatures", 32)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Model != "llama-8b" || reply.OutputTokens < 1 {
		t.Fatalf("reply = %+v", reply)
	}
	if bd.Get("inference") <= 0 {
		t.Fatal("no inference component in REST breakdown")
	}
	if bd.Total() <= 0 {
		t.Fatal("empty breakdown total")
	}
}

// TestCallerConcurrentInferRace shares one Caller between goroutines: each
// call draws its own request ID, and its reply carries the ID it was sent
// under, so no two replies share one.
func TestCallerConcurrentInferRace(t *testing.T) {
	const goroutines, calls = 8, 50
	g, _ := newGateway(t, "noop")
	caller, err := NewCaller(g.Endpoint(), simtime.NewScaled(1000, origin))
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	uids := make(chan string, goroutines*calls)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				reply, _, err := caller.Infer(context.Background(), "x", 0)
				if err != nil {
					t.Error(err)
					return
				}
				uids <- reply.RequestUID
			}
		}()
	}
	wg.Wait()
	close(uids)
	seen := make(map[string]bool, goroutines*calls)
	for uid := range uids {
		if seen[uid] {
			t.Fatalf("request UID %s on two replies", uid)
		}
		seen[uid] = true
	}
	if len(seen) != goroutines*calls {
		t.Fatalf("%d distinct request UIDs, want %d", len(seen), goroutines*calls)
	}
}

// TestCallersGetTheirOwnReplies gives two Callers of one gateway
// different prompts. Each numbers its requests from 1, so their first
// requests share a request ID; the server executes both, and each Caller
// gets the reply to its own prompt.
func TestCallersGetTheirOwnReplies(t *testing.T) {
	g, srv := newGateway(t, "llama-8b")
	a, b := newCaller(t, g), newCaller(t, g)
	ra, _, err := a.Infer(context.Background(), "what genes respond to radiation", 64)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := b.Infer(context.Background(), "summarize", 4)
	if err != nil {
		t.Fatal(err)
	}
	if ra.RequestUID != rb.RequestUID {
		t.Fatalf("request IDs %s and %s differ; the test needs them equal", ra.RequestUID, rb.RequestUID)
	}
	if ra.OutputTokens <= 4 {
		t.Fatalf("caller A: %d output tokens, want more than B's limit of 4", ra.OutputTokens)
	}
	if rb.OutputTokens < 1 || rb.OutputTokens > 4 || rb.Text == ra.Text {
		t.Fatalf("caller B got %d tokens %q, want its own reply of at most 4 (A's: %d tokens %q)",
			rb.OutputTokens, rb.Text, ra.OutputTokens, ra.Text)
	}
	if got := srv.Processed(); got != 2 {
		t.Fatalf("processed = %d, want 2", got)
	}
}

func TestCallerErrorPropagation(t *testing.T) {
	g, srv := newGateway(t, "noop")
	srv.Stop()
	caller, _ := NewCaller(g.Endpoint(), simtime.NewScaled(1000, origin))
	if _, _, err := caller.Infer(context.Background(), "x", 0); err == nil {
		t.Fatal("Infer succeeded against stopped server")
	}
}

func TestCallerContextCancellation(t *testing.T) {
	g, _ := newGateway(t, "llama-8b")
	// real clock so the HTTP call genuinely outlives the context
	caller, _ := NewCaller(g.Endpoint(), simtime.NewReal())
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// llama at scale 100000 completes in ~µs, so race may pass; use large
	// budget to make the deadline bite more often — either outcome must
	// not hang
	done := make(chan error, 1)
	go func() {
		_, _, err := caller.Infer(ctx, "x", 4096)
		done <- err
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("REST Infer hung past context deadline")
	}
}

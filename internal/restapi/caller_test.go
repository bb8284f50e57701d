package restapi

import (
	"context"
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
	if bd.Components["inference"] <= 0 {
		t.Fatal("no inference component in REST breakdown")
	}
	if bd.Total() <= 0 {
		t.Fatal("empty breakdown total")
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

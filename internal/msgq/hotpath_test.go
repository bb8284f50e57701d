package msgq

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/proto"
)

// These tests pin down the REQ/REP and PUB/SUB hot-path optimizations so
// they cannot silently regress: the in-process transport itself must stay
// allocation-free on the synchronous fast path, and publishing must not
// spawn goroutines or allocate per subscriber.

// TestRequestFastPathAllocFree asserts that a round trip through the
// in-proc transport — two hops plus the handler call — performs zero
// transport-side allocations when the context is not cancellable.
func TestRequestFastPathAllocFree(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Bind("svc", echoHandler); err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("client", "svc")
	if err != nil {
		t.Fatal(err)
	}
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Request(ctx, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("fast-path Request allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPublishAllocFree asserts that Publish with live subscribers
// allocates nothing: it sends into each subscriber's channel in place.
func TestPublishAllocFree(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	p, err := n.BindPub("updates")
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscription, 4)
	for i := range subs {
		sub, err := n.Subscribe(fmt.Sprintf("s%d", i), "updates", 4096)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
		defer sub.Cancel()
	}
	env, _ := proto.NewEnvelope(proto.KindStateUpdate, 1, "u", "", t0, proto.StateUpdate{State: "X"})
	allocs := testing.AllocsPerRun(100, func() { p.Publish("topic", env) })
	if allocs > 0 {
		t.Fatalf("Publish allocates %.1f objects/op with 4 subscribers, want 0", allocs)
	}
}

// TestRequestCachedServerSurvivesRebind verifies the dial-time server
// cache re-resolves through the registry when the server closes and the
// address is rebound — matching the seed's lookup-every-request semantics.
func TestRequestCachedServerSurvivesRebind(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	var hits atomic.Int32
	s1, _ := n.Bind("svc", func(env proto.Envelope) proto.Envelope {
		hits.Add(1)
		return echoHandler(env)
	})
	c, _ := n.Dial("client", "svc")
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
	if _, err := c.Request(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	_ = s1.Close()
	var rebound atomic.Int32
	if _, err := n.Bind("svc", func(env proto.Envelope) proto.Envelope {
		rebound.Add(1)
		return echoHandler(env)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 || rebound.Load() != 1 {
		t.Fatalf("old server saw %d, rebound server saw %d; want 1/1", hits.Load(), rebound.Load())
	}
}

// BenchmarkInprocRequest measures the synchronous REQ/REP fast path.
func BenchmarkInprocRequest(b *testing.B) {
	n := newTestNet()
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	c, _ := n.Dial("client", "svc")
	env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Request(ctx, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInprocRequestContended is the contention benchmark: GOMAXPROCS
// client goroutines, each with its own connection, hammering one server on
// one shared Network. Before the registry split and dial-time server
// cache, every request serialized on the global Network mutex.
func BenchmarkInprocRequestContended(b *testing.B) {
	n := newTestNet()
	defer n.Close()
	_, _ = n.Bind("svc", echoHandler)
	ctx := context.Background()
	var id atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		c, err := n.Dial(fmt.Sprintf("client-%d", id.Add(1)), "svc")
		if err != nil {
			b.Error(err)
			return
		}
		env, _ := proto.NewEnvelope(proto.KindRequest, 1, "client", "svc", t0, struct{}{})
		for pb.Next() {
			if _, err := c.Request(ctx, env); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPublishFanout measures Publish cost against 16 subscribers.
func BenchmarkPublishFanout(b *testing.B) {
	n := newTestNet()
	defer n.Close()
	p, _ := n.BindPub("updates")
	for i := 0; i < 16; i++ {
		sub, err := n.Subscribe(fmt.Sprintf("s%d", i), "updates", 1)
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Cancel()
	}
	env, _ := proto.NewEnvelope(proto.KindStateUpdate, 1, "u", "", t0, proto.StateUpdate{State: "X"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Publish("t", env)
	}
}

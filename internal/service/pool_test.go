package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
)

// poolCaller is a scripted in-memory backend for pool tests: it answers
// with the endpoint identity it was dialed for, optionally parks on a
// gate before answering, and fails with the transport's endpoint-gone
// error once its address is marked dead.
type poolCaller struct {
	uid, addr string
	dead      *atomic.Value // current dead address (string), may be nil
	gate      chan struct{} // when non-nil, Infer blocks here first
	entered   chan struct{} // signaled once per Infer before the gate
}

func (f *poolCaller) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.dead != nil {
		if d, _ := f.dead.Load().(string); d == f.addr {
			return proto.InferenceReply{}, metrics.Breakdown{}, fmt.Errorf("%w: %s", msgq.ErrClosed, f.addr)
		}
	}
	return proto.InferenceReply{ServiceUID: f.uid, Model: "noop", Text: f.addr}, metrics.Breakdown{}, nil
}

func (f *poolCaller) Close() error { return nil }

// poolDial returns a DialFn minting poolCallers and the dial counter.
func poolDial(dead *atomic.Value) (DialFn, *atomic.Int64) {
	var dials atomic.Int64
	return func(e proto.Endpoint) (Caller, error) {
		dials.Add(1)
		return &poolCaller{uid: e.ServiceUID, addr: e.Address, dead: dead}, nil
	}, &dials
}

func TestPoolValidation(t *testing.T) {
	dial, _ := poolDial(nil)
	if _, err := NewPool(nil, "noop", dial, BalancerOptions{}); err == nil {
		t.Fatal("NewPool accepted a nil registry")
	}
	if _, err := NewPool(NewEndpointRegistry(), "noop", nil, BalancerOptions{}); err == nil {
		t.Fatal("NewPool accepted a nil dial function")
	}
}

func TestPoolRoundRobinAcrossServices(t *testing.T) {
	reg := NewEndpointRegistry()
	for i := 0; i < 3; i++ {
		reg.Publish(ep(fmt.Sprintf("svc-%d", i), fmt.Sprintf("addr-%d", i)))
	}
	dial, _ := poolDial(nil)
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	served := map[string]int{}
	for i := 0; i < 9; i++ {
		reply, _, err := pool.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		served[reply.ServiceUID]++
	}
	if len(served) != 3 {
		t.Fatalf("requests hit %d services, want 3", len(served))
	}
	for uid, n := range served {
		if n != 3 {
			t.Fatalf("service %s served %d/9, want 3 (round robin)", uid, n)
		}
	}
}

func TestPoolNoEndpoints(t *testing.T) {
	dial, _ := poolDial(nil)
	pool, err := NewPool(NewEndpointRegistry(), "noop", dial, BalancerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, _, err := pool.Infer(context.Background(), "x", 0); !errors.Is(err, loadbal.ErrNoEndpoints) {
		t.Fatalf("Infer with no endpoints: err = %v, want ErrNoEndpoints", err)
	}
}

func TestPoolPicksUpNewServices(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("a", "addr-a"))
	dial, _ := poolDial(nil)
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, _, err := pool.Infer(context.Background(), "x", 0); err != nil {
		t.Fatal(err)
	}
	// a second service joins; the pool must route to it without re-creation
	reg.Publish(ep("b", "addr-b"))
	served := map[string]bool{}
	for i := 0; i < 8; i++ {
		reply, _, err := pool.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		served[reply.ServiceUID] = true
	}
	if len(served) != 2 {
		t.Fatalf("pool used %d services after join, want 2", len(served))
	}
}

func TestPoolFollowsWithdrawal(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("a", "addr-a"))
	reg.Publish(ep("b", "addr-b"))
	dial, _ := poolDial(nil)
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// warm both connections
	for i := 0; i < 2; i++ {
		if _, _, err := pool.Infer(context.Background(), "x", 0); err != nil {
			t.Fatal(err)
		}
	}
	// a leaves the registry: its endpoint vanishes from ByModel, so every
	// subsequent request lands on b
	reg.Withdraw("a")
	for i := 0; i < 4; i++ {
		reply, _, err := pool.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		if reply.ServiceUID != "b" {
			t.Fatalf("request served by %s after withdrawal of a", reply.ServiceUID)
		}
	}
}

func TestPoolLeastLoadedPrefersIdleService(t *testing.T) {
	reg := NewEndpointRegistry()
	// UID order fixes the candidate order: busy first, so a naive picker
	// would choose it
	reg.Publish(ep("busy", "addr-busy"))
	reg.Publish(ep("idle", "addr-idle"))
	now := time.Unix(1000, 0)
	reg.ReportLoad("busy", Load{Queued: 3, InFlight: 1, At: now})
	reg.ReportLoad("idle", Load{At: now})
	dial, _ := poolDial(nil)
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{Picker: loadbal.NewLeastLoaded()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	reply, _, err := pool.Infer(context.Background(), "quick", 8)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ServiceUID != "idle" {
		t.Fatalf("least-loaded pool routed to the saturated service %s", reply.ServiceUID)
	}
}

// TestPoolSkipsSuspendedEndpoint pins the live-only candidate set: while
// a failover is in flight the suspended service gets no pooled request
// (a Balancer's group view would keep it and park), and it rejoins on
// re-publication.
func TestPoolSkipsSuspendedEndpoint(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("a", "addr-a"))
	reg.Publish(ep("b", "addr-b"))
	dial, _ := poolDial(nil)
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	reg.Suspend("a")
	for i := 0; i < 4; i++ {
		reply, _, err := pool.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		if reply.ServiceUID != "b" {
			t.Fatalf("request served by %s while a is suspended", reply.ServiceUID)
		}
	}
	reg.Publish(ep("a", "addr-a2"))
	served := map[string]bool{}
	for i := 0; i < 4; i++ {
		reply, _, err := pool.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		served[reply.ServiceUID] = true
	}
	if !served["a"] {
		t.Fatal("re-published service never rejoined the pool")
	}
}

// TestPoolRepublicationDuringInFlightError pins the evict-on-error race
// the registry fold removed (satellite bugfix): a request in flight
// against generation G errors after the endpoint was already republished
// at G+1 and a fresh connection to G+1 was warmed by another request.
// The old pool evicted cached connections by UID whenever a request
// errored, which here would have torn down the healthy G+1 connection
// and forced a third dial; generation-aware staleness keeps it.
func TestPoolRepublicationDuringInFlightError(t *testing.T) {
	reg := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var dials atomic.Int64
	dial := func(e proto.Endpoint) (Caller, error) {
		n := dials.Add(1)
		c := &poolCaller{uid: e.ServiceUID, addr: e.Address, dead: &dead}
		if n == 1 {
			// only the first (generation-1) connection parks on the gate
			c.gate, c.entered = gate, entered
		}
		return c, nil
	}
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	reg.Publish(ep("svc", "gen1-addr"))
	req1 := make(chan error, 1)
	go func() {
		_, _, err := pool.Infer(context.Background(), "x", 0)
		req1 <- err
	}()
	<-entered // request 1 is in flight against the generation-1 connection

	// failover: generation 1 dies, generation 2 is republished, and a
	// second request warms the generation-2 connection (dial #2)
	dead.Store("gen1-addr")
	reg.Suspend("svc")
	reg.Publish(ep("svc", "gen2-addr"))
	reply, _, err := pool.Infer(context.Background(), "x", 0)
	if err != nil || reply.Text != "gen2-addr" {
		t.Fatalf("post-republish infer = %q err %v", reply.Text, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after warming generation 2, want 2", n)
	}

	// request 1's error finally lands, carrying generation 1: the
	// resolver must retry on the cached generation-2 connection, not
	// evict it
	close(gate)
	select {
	case err := <-req1:
		if err != nil {
			t.Fatalf("in-flight request did not fail over: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never settled")
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after the stale error, want 2 (gen-2 connection evicted?)", n)
	}
	// and the pool keeps serving on the surviving connection
	if _, _, err := pool.Infer(context.Background(), "x", 0); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after follow-up request, want 2", n)
	}
}

func TestPoolClosedRejects(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("a", "addr-a"))
	dial, _ := poolDial(nil)
	pool, err := NewPool(reg, "noop", dial, BalancerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = pool.Close()
	if _, _, err := pool.Infer(context.Background(), "x", 0); err == nil {
		t.Fatal("Infer succeeded on closed pool")
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
)

func ep(uid, addr string) proto.Endpoint {
	return proto.Endpoint{ServiceUID: uid, Model: "noop", Address: addr, Protocol: "msgq"}
}

func TestEndpointRegistryPublishResolveGenerations(t *testing.T) {
	r := NewEndpointRegistry()
	if _, _, ok := r.Resolve("svc"); ok {
		t.Fatal("empty registry resolved")
	}
	if g, _ := r.Publish(ep("svc", "a")); g != 1 {
		t.Fatalf("first publish gen = %d, want 1", g)
	}
	got, gen, ok := r.Resolve("svc")
	if !ok || got.Address != "a" || gen != 1 || got.Generation != 1 {
		t.Fatalf("resolve = %+v gen=%d ok=%v", got, gen, ok)
	}
	// re-publication (failover) bumps the generation
	if g, _ := r.Publish(ep("svc", "b")); g != 2 {
		t.Fatalf("re-publish gen = %d, want 2", g)
	}
	got, gen, _ = r.Resolve("svc")
	if got.Address != "b" || gen != 2 {
		t.Fatalf("after re-publish: %+v gen=%d", got, gen)
	}
	if r.Generation("svc") != 2 {
		t.Fatalf("Generation = %d", r.Generation("svc"))
	}
}

func TestEndpointRegistrySuspendHidesButKeepsGeneration(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	r.Suspend("svc")
	if _, _, ok := r.Resolve("svc"); ok {
		t.Fatal("suspended endpoint resolved")
	}
	if g := r.Generation("svc"); g != 1 {
		t.Fatalf("suspend moved the generation: %d", g)
	}
	if got := len(r.ByModel("noop")); got != 0 {
		t.Fatalf("ByModel lists %d suspended endpoints", got)
	}
	// the re-publication is strictly newer than the pre-failover copy
	if g, _ := r.Publish(ep("svc", "b")); g != 2 {
		t.Fatalf("gen after suspend+publish = %d", g)
	}
}

// TestEndpointRegistryByModelListsLiveSorted: ByModel lists one model's
// live endpoints in service-UID order, leaving out suspended and withdrawn
// ones and other models.
func TestEndpointRegistryByModelListsLiveSorted(t *testing.T) {
	r := NewEndpointRegistry()
	for _, uid := range []string{"d", "b", "a", "c"} {
		r.Publish(ep(uid, "addr-"+uid))
	}
	other := ep("e", "addr-e")
	other.Model = "llama-8b"
	r.Publish(other)
	r.Suspend("c")
	r.Withdraw("d")
	var got []string
	for _, e := range r.ByModel("noop") {
		got = append(got, e.ServiceUID)
	}
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("ByModel(noop) = %v, want [a b]", got)
	}
	r.Publish(ep("c", "addr-c2"))
	if eps := r.ByModel("noop"); len(eps) != 3 || eps[2].ServiceUID != "c" || eps[2].Address != "addr-c2" {
		t.Fatalf("after re-publication ByModel(noop) = %+v", eps)
	}
}

func TestEndpointRegistryAwaitNewerWakesOnRepublish(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	r.Suspend("svc")

	done := make(chan proto.Endpoint, 1)
	go func() {
		got, gen, err := r.AwaitNewer(context.Background(), "svc", 1)
		if err != nil || gen != 2 {
			t.Errorf("AwaitNewer = gen %d err %v", gen, err)
		}
		done <- got
	}()
	// the waiter must genuinely park (no endpoint newer than gen 1 yet)
	select {
	case <-done:
		t.Fatal("AwaitNewer returned before the re-publication")
	case <-time.After(10 * time.Millisecond):
	}
	r.Publish(ep("svc", "b"))
	select {
	case got := <-done:
		if got.Address != "b" {
			t.Fatalf("woke with %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitNewer never woke")
	}
}

func TestEndpointRegistryAwaitNewerImmediateWhenAlreadyNewer(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	r.Publish(ep("svc", "b"))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got, gen, err := r.AwaitNewer(ctx, "svc", 1)
	if err != nil || gen != 2 || got.Address != "b" {
		t.Fatalf("AwaitNewer = %+v gen %d err %v", got, gen, err)
	}
}

func TestEndpointRegistryWithdrawFailsWaiters(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	errs := make(chan error, 1)
	go func() {
		_, _, err := r.AwaitNewer(context.Background(), "svc", 1)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	r.Withdraw("svc")
	select {
	case err := <-errs:
		if !errors.Is(err, ErrWithdrawn) {
			t.Fatalf("err = %v, want ErrWithdrawn", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never failed after withdraw")
	}
	if _, _, ok := r.Resolve("svc"); ok {
		t.Fatal("withdrawn endpoint resolved")
	}
	// a fresh publication clears the tombstone (new incarnation)
	r.Publish(ep("svc", "c"))
	if _, _, ok := r.Resolve("svc"); !ok {
		t.Fatal("re-published endpoint not resolvable")
	}
}

func TestEndpointRegistryAwaitContextExpiry(t *testing.T) {
	r := NewEndpointRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := r.AwaitNewer(ctx, "never", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

// TestEndpointRegistryConcurrentResolveDuringRepublish is the satellite's
// race test: resolvers hammer Resolve/AwaitNewer while publishers churn
// the entry through suspend/re-publish cycles. Run under -race; the
// invariant checked is that a resolved endpoint's address always matches
// its generation (no torn read across the swap).
func TestEndpointRegistryConcurrentResolveDuringRepublish(t *testing.T) {
	r := NewEndpointRegistry()
	addrOf := func(gen uint64) string { return fmt.Sprintf("addr-%d", gen) }
	r.Publish(ep("svc", addrOf(1)))

	const cycles = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, gen, ok := r.Resolve("svc"); ok {
					if got.Address != addrOf(gen) || got.Generation != gen {
						t.Errorf("torn read: gen %d address %s", gen, got.Address)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := uint64(1)
		for {
			got, newGen, err := r.AwaitNewer(context.Background(), "svc", gen)
			if err != nil {
				return // withdrawn at the end
			}
			if newGen <= gen || got.Address != addrOf(newGen) {
				t.Errorf("await regressed: had %d got %d (%s)", gen, newGen, got.Address)
				return
			}
			gen = newGen
		}
	}()
	for g := uint64(2); g <= cycles; g++ {
		r.Suspend("svc")
		r.Publish(ep("svc", addrOf(g)))
	}
	r.Withdraw("svc")
	close(stop)
	wg.Wait()
}

// --- resolver ----------------------------------------------------------------

// fakeCaller is a scripted in-memory backend: it answers with the
// endpoint identity it was dialed for, optionally parks on a gate before
// answering, and fails with the transport's endpoint-gone error — as a
// closed msgq server produces — once its address is marked dead.
type fakeCaller struct {
	uid, addr string
	dead      *atomic.Value // current dead address (string), may be nil
	gate      chan struct{} // when non-nil, Infer blocks here first
	entered   chan struct{} // signaled once per Infer before the gate
}

func (f *fakeCaller) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
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

func (f *fakeCaller) Close() error { return nil }

// fakeDial returns a DialFn minting fakeCallers and the dial counter.
func fakeDial(dead *atomic.Value) (DialFn, *atomic.Int64) {
	var dials atomic.Int64
	return func(e proto.Endpoint) (Caller, error) {
		dials.Add(1)
		return &fakeCaller{uid: e.ServiceUID, addr: e.Address, dead: dead}, nil
	}, &dials
}

func TestResolverStaleGenerationReresolution(t *testing.T) {
	r := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	var dialed []string
	var mu sync.Mutex
	dial := func(e proto.Endpoint) (Caller, error) {
		mu.Lock()
		dialed = append(dialed, e.Address)
		mu.Unlock()
		return &fakeCaller{uid: e.ServiceUID, addr: e.Address, dead: &dead}, nil
	}
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))

	ctx := context.Background()
	reply, _, err := res.Infer(ctx, "p", 0)
	if err != nil || reply.Text != "a" {
		t.Fatalf("first infer = %q err %v", reply.Text, err)
	}
	if res.Reresolved() != 0 {
		t.Fatalf("reresolved = %d before any failover", res.Reresolved())
	}

	// failover: a is dead, b published with a newer generation. The
	// resolver must detect the stale generation and redial without an
	// error surfacing to the caller.
	dead.Store("a")
	r.Suspend("svc")
	r.Publish(ep("svc", "b"))
	reply, _, err = res.Infer(ctx, "p", 0)
	if err != nil || reply.Text != "b" {
		t.Fatalf("post-failover infer = %q err %v", reply.Text, err)
	}
	if res.Reresolved() != 1 {
		t.Fatalf("reresolved = %d, want 1", res.Reresolved())
	}
	mu.Lock()
	want := []string{"a", "b"}
	if len(dialed) != 2 || dialed[0] != want[0] || dialed[1] != want[1] {
		t.Fatalf("dialed %v, want %v", dialed, want)
	}
	mu.Unlock()
}

func TestResolverRetriesThroughMidRequestFailure(t *testing.T) {
	// The harder ordering: the request fails BEFORE the registry knows
	// anything — the resolver must park in AwaitNewer and retry once the
	// re-publication lands.
	r := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	dial, _ := fakeDial(&dead)
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))
	if _, _, err := res.Infer(context.Background(), "p", 0); err != nil {
		t.Fatal(err)
	}

	dead.Store("a") // service crashed; registry not yet updated
	done := make(chan error, 1)
	var text atomic.Value
	go func() {
		reply, _, err := res.Infer(context.Background(), "p", 0)
		text.Store(reply.Text)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("infer settled (%v) before the re-publication", err)
	case <-time.After(10 * time.Millisecond):
	}
	r.Publish(ep("svc", "b"))
	select {
	case err := <-done:
		if err != nil || text.Load().(string) != "b" {
			t.Fatalf("recovered infer = %q err %v", text.Load(), err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver never recovered")
	}
}

// TestResolverRepublicationDuringInFlightError pins the evict-on-error
// race: a request in flight against generation G errors after the
// endpoint was already republished at G+1 and a fresh connection to G+1
// was warmed by another request. Evicting the cached connection whenever
// a request errored would tear down the healthy G+1 connection and force
// a third dial; generation-aware staleness keeps it.
func TestResolverRepublicationDuringInFlightError(t *testing.T) {
	reg := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var dials atomic.Int64
	dial := func(e proto.Endpoint) (Caller, error) {
		n := dials.Add(1)
		c := &fakeCaller{uid: e.ServiceUID, addr: e.Address, dead: &dead}
		if n == 1 {
			// only the first (generation-1) connection parks on the gate
			c.gate, c.entered = gate, entered
		}
		return c, nil
	}
	res, err := NewResolver(reg, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	reg.Publish(ep("svc", "gen1-addr"))
	req1 := make(chan error, 1)
	go func() {
		_, _, err := res.Infer(context.Background(), "x", 0)
		req1 <- err
	}()
	<-entered // request 1 is in flight against the generation-1 connection

	// failover: generation 1 dies, generation 2 is republished, and a
	// second request warms the generation-2 connection (dial #2)
	dead.Store("gen1-addr")
	reg.Suspend("svc")
	reg.Publish(ep("svc", "gen2-addr"))
	reply, _, err := res.Infer(context.Background(), "x", 0)
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
	// and the resolver keeps serving on the surviving connection
	if _, _, err := res.Infer(context.Background(), "x", 0); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after follow-up request, want 2", n)
	}
}

// TestResolverSurfacesApplicationError: an application-level error from
// a live service at the current generation (queue full, model error) is
// NOT a failover — it must surface immediately instead of parking the
// caller in AwaitNewer for a re-publication that will never come.
func TestResolverSurfacesApplicationError(t *testing.T) {
	r := NewEndpointRegistry()
	appErr := errors.New("serving: request queue full")
	dial := func(e proto.Endpoint) (Caller, error) {
		return callerFunc(func() (proto.InferenceReply, metrics.Breakdown, error) {
			return proto.InferenceReply{}, metrics.Breakdown{}, appErr
		}), nil
	}
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))
	done := make(chan error, 1)
	go func() {
		_, _, err := res.Infer(context.Background(), "p", 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, appErr) {
			t.Fatalf("err = %v, want the application error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver parked on an application error from a live service")
	}
}

// callerFunc adapts a function to Caller for test stubs.
type callerFunc func() (proto.InferenceReply, metrics.Breakdown, error)

func (f callerFunc) Infer(context.Context, string, int) (proto.InferenceReply, metrics.Breakdown, error) {
	return f()
}
func (f callerFunc) Close() error { return nil }

func TestResolverSurfacesWithdrawal(t *testing.T) {
	r := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("a")
	dial, _ := fakeDial(&dead)
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))
	errs := make(chan error, 1)
	go func() {
		_, _, err := res.Infer(context.Background(), "p", 0)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	r.Withdraw("svc") // terminated for good: the resolver must stop waiting
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("infer succeeded against a withdrawn, dead service")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver hung on a withdrawn service")
	}
}

func TestEndpointRegistryIncarnationFence(t *testing.T) {
	r := NewEndpointRegistry()
	// Journal-less path: fence 0 accepts incarnation-0 publications.
	if _, err := r.Publish(ep("svc", "a")); err != nil {
		t.Fatalf("unfenced publish: %v", err)
	}

	r.SetFence(2)
	if r.Fence() != 2 {
		t.Fatalf("Fence = %d", r.Fence())
	}
	r.SetFence(1) // fences only move forward
	if r.Fence() != 2 {
		t.Fatalf("fence moved backwards: %d", r.Fence())
	}

	stale := ep("svc", "zombie")
	stale.Incarnation = 1
	if _, err := r.Publish(stale); !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("stale publish err = %v, want ErrStaleIncarnation", err)
	}
	if e, _, ok := r.Resolve("svc"); !ok || e.Address != "a" {
		t.Fatalf("stale publish clobbered the entry: %+v ok=%v", e, ok)
	}

	fresh := ep("svc", "successor")
	fresh.Incarnation = 2
	if g, err := r.Publish(fresh); err != nil || g != 2 {
		t.Fatalf("fresh publish gen=%d err=%v", g, err)
	}
}

func TestEndpointRegistryObserverAndRestore(t *testing.T) {
	r := NewEndpointRegistry()
	type event struct {
		op  EndpointOp
		uid string
		gen uint64
	}
	var events []event
	r.SetObserver(func(op EndpointOp, uid string, e proto.Endpoint, gen uint64) {
		events = append(events, event{op, uid, gen})
	})
	r.Publish(ep("svc", "a"))
	r.Suspend("svc")
	r.Publish(ep("svc", "b"))
	r.Withdraw("svc")
	want := []event{
		{endpointPublish, "svc", 1},
		{endpointSuspend, "svc", 1},
		{endpointPublish, "svc", 2},
		{endpointWithdraw, "svc", 2},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %+v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}

	// Restore seeds a generation floor without making the entry live; the
	// next publish lands strictly above the floor.
	r2 := NewEndpointRegistry()
	r2.Restore("svc", 3, false)
	if _, _, ok := r2.Resolve("svc"); ok {
		t.Fatal("restored entry resolved before a publish")
	}
	if g, err := r2.Publish(ep("svc", "c")); err != nil || g != 4 {
		t.Fatalf("publish after restore gen=%d err=%v, want 4", g, err)
	}
	// Restored tombstone: Await fails immediately with ErrWithdrawn.
	r3 := NewEndpointRegistry()
	r3.Restore("gone", 2, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := r3.AwaitNewer(ctx, "gone", 0); !errors.Is(err, ErrWithdrawn) {
		t.Fatalf("await on restored tombstone err = %v, want ErrWithdrawn", err)
	}
}

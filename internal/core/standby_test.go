package core

// Tests for warm-standby replicas: pre-bootstrapped spare instances held
// suspended in the registry, promoted on pilot failure with a single
// generation-bump publish instead of a cold re-bootstrap.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/spec"
)

// waitStandbys polls until the handle holds n promotable standbys.
func waitStandbys(t *testing.T, h *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for h.Standbys() != n {
		if time.Now().After(deadline) {
			t.Fatalf("standbys = %d, want %d", h.Standbys(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitPromotions polls until the handle reports n promotions.
func waitPromotions(t *testing.T, h *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for h.Promotions() != n {
		if time.Now().After(deadline) {
			t.Fatalf("promotions = %d, want %d", h.Promotions(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmStandbyPromotionSingleGenerationBump is the tentpole pin for
// failover cost: with one warm standby held on the other pilot, killing
// the hosting pilot promotes the standby with exactly one registry
// generation bump — no re-bootstrap, Replacements stays 0 — and the
// promoted instance serves immediately.
func TestWarmStandbyPromotionSingleGenerationBump(t *testing.T) {
	s := newSession(t, 100000)
	sm := s.ServiceManager()
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm.AddPilot(p1)
	sm.AddPilot(p2)

	d := noopService("spared")
	d.WarmStandbys = 1
	h, err := sm.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	if h.Pilot() != p1.UID() {
		t.Fatalf("base instance on %s, want first pilot %s", h.Pilot(), p1.UID())
	}
	waitStandbys(t, h, 1)
	// distinct-pilot placement: the spare must not share the base's pilot
	h.mu.Lock()
	sbPilot := h.standbys[0].p.UID()
	h.mu.Unlock()
	if sbPilot != p2.UID() {
		t.Fatalf("standby on %s, want the other pilot %s", sbPilot, p2.UID())
	}

	reg := s.EndpointRegistry()
	epBefore, genBefore, ok := reg.Resolve(h.UID())
	if !ok {
		t.Fatal("no live endpoint before failover")
	}

	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitPromotions(t, h, 1)
	epAfter, genAfter, err := reg.AwaitNewer(ctx, h.UID(), genBefore)
	if err != nil {
		t.Fatal(err)
	}
	// one generation bump, not the suspend + fresh-bootstrap publish pair
	// a cold re-placement would eventually produce
	if genAfter != genBefore+1 {
		t.Fatalf("failover cost %d generations, want exactly 1", genAfter-genBefore)
	}
	if epAfter.Address == epBefore.Address {
		t.Fatalf("promotion kept the dead address %s", epAfter.Address)
	}
	if epAfter.ServiceUID != h.UID() {
		t.Fatalf("promotion published UID %s, want logical %s", epAfter.ServiceUID, h.UID())
	}
	if h.Replacements() != 0 {
		t.Fatalf("replacements = %d after warm promotion, want 0 (no re-bootstrap)", h.Replacements())
	}
	if h.Pilot() != p2.UID() {
		t.Fatalf("promoted service on %s, want standby pilot %s", h.Pilot(), p2.UID())
	}

	// the promoted instance serves (the reply carries its pilot-level
	// standby UID — addressing stays on the logical UID throughout)
	cl, err := s.DialService(platform.Addr("delta", "", "client.0001"), h.UID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Infer(ctx, "post-promotion", 0); err != nil {
		t.Fatalf("inference after promotion: %v", err)
	}

	// the drained pool refills in the background (p1 is gone, so the
	// refilled spare lands on the survivor — a same-pilot spare beats none)
	waitStandbys(t, h, 1)

	// Terminate addresses the promoted pilot-level instance and withdraws
	// the logical UID
	if err := sm.Terminate(h.UID(), false); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := reg.Resolve(h.UID()); ok {
		t.Fatal("logical endpoint still resolvable after Terminate")
	}
	select {
	case <-h.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("handle never settled after Terminate")
	}
}

// TestWarmStandbyExhaustedFallsBackToColdReplace: with the standby pool
// empty (WarmStandbys spares could never be placed — the session has a
// single pilot until after the kill), failover must degrade to the cold
// re-bootstrap path, not wedge.
func TestWarmStandbyExhaustedFallsBackToColdReplace(t *testing.T) {
	s := newSession(t, 100000)
	sm := s.ServiceManager()
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm.AddPilot(p1)
	sm.AddPilot(p2)

	d := noopService("unspared") // no WarmStandbys: the pool is empty
	h, err := sm.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitReplacements(t, h, 1)
	if h.Promotions() != 0 {
		t.Fatalf("promotions = %d with no standby pool, want 0", h.Promotions())
	}
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStandbyPromotionVsConcurrentClose races a promotion-triggering
// pilot kill against session Close: whichever wins, the handle must
// settle (no wedge, no panic) and the session must shut down cleanly.
// Run under -race, the interleaving coverage is the point.
func TestWarmStandbyPromotionVsConcurrentClose(t *testing.T) {
	s := newSession(t, 100000)
	sm := s.ServiceManager()
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm.AddPilot(p1)
	sm.AddPilot(p2)

	d := noopService("racy")
	d.WarmStandbys = 1
	h, err := sm.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	waitStandbys(t, h, 1)

	done := make(chan struct{})
	go func() {
		_ = p1.Shutdown()
		close(done)
	}()
	s.Close()
	<-done
	select {
	case <-h.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("handle never settled across kill/close race")
	}
}

// TestStandbyRefillSingleOwner pins who refills a drained standby pool: the
// autoscale tick alone. fillStandbys computes the deficit under h.mu and
// spawns outside it, so when a promotion also refilled (on a goroutine of
// its own) the two owners could both see deficit 1 and the pool held two
// spares for good. The tick never fires here (ScaleInterval is a simulated
// year), so after a promotion — and after a whole unrelated bootstrap, far
// longer than any goroutine the promotion could have started needs to run —
// the pool must still be empty with no second standby ever named; the one
// tick the test then runs by hand refills it to exactly one.
func TestStandbyRefillSingleOwner(t *testing.T) {
	s := newSession(t, 1000)
	sm := s.ServiceManager()
	var pilots [2]*pilot.Pilot
	for i := range pilots {
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		sm.AddPilot(p)
		pilots[i] = p
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spin := func(what string, ok func() bool) {
		t.Helper()
		for !ok() {
			if ctx.Err() != nil {
				t.Fatalf("timed out waiting for %s", what)
			}
			runtime.Gosched()
		}
	}
	pool := func() (named, pooled int) {
		h, _ := sm.Get("spared")
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.sbSeq, len(h.standbys)
	}

	d := noopService("spared")
	d.UID = "spared"
	d.WarmStandbys = 1
	d.ScaleInterval = 365 * 24 * time.Hour
	h, err := sm.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	spin("the first standby", func() bool { return h.Standbys() == 1 })
	_, gen, ok := s.EndpointRegistry().Resolve(h.UID())
	if !ok {
		t.Fatal("no live endpoint before failover")
	}

	if err := pilots[0].Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EndpointRegistry().AwaitNewer(ctx, h.UID(), gen); err != nil {
		t.Fatal(err)
	}
	if h.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", h.Promotions())
	}
	other, err := sm.Submit(noopService("unrelated"))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if named, pooled := pool(); named != 1 || pooled != 0 {
		t.Fatalf("after the promotion alone: %d standbys named, %d pooled; want 1 and 0 (the tick owns the refill)", named, pooled)
	}

	sm.scaleTick(h)
	spin("the refilled standby", func() bool { return h.Standbys() == 1 })
	if named, pooled := pool(); named != 2 || pooled != 1 {
		t.Fatalf("after one tick: %d standbys named, %d pooled; want 2 and 1", named, pooled)
	}
}

package core

// Tests for the routed service lifecycle: router-seam placement
// (pinning, shape-aware selection), the session EndpointRegistry mirror,
// failure-driven re-placement with atomic re-publication, the
// pinned-service error path, and client behaviour across a failover
// (endpoint-caching clients erroring out vs registry-resolving clients
// recovering).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/loadbal"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

func noopService(name string) spec.ServiceDescription {
	return spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: name, Cores: 1},
		Model:           "noop",
		ProbeInterval:   time.Hour, // liveness probing irrelevant here
		StartTimeout:    time.Hour,
	}
}

// waitReplacements polls until the handle reports n re-placements.
func waitReplacements(t *testing.T, h *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for h.Replacements() != n {
		if time.Now().After(deadline) {
			t.Fatalf("replacements = %d, want %d", h.Replacements(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceRoutingPinToPilot pins a service to the second pilot: the
// router is bypassed and the service bootstraps exactly there.
func TestServiceRoutingPinToPilot(t *testing.T) {
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
	d := noopService("pinned")
	d.Pilot = p2.UID()
	h, err := sm.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	if h.Pilot() != p2.UID() {
		t.Fatalf("pinned service on %s, want %s", h.Pilot(), p2.UID())
	}
	// round-robin state untouched by the pinned submit: the next unpinned
	// service goes to pilot 1 (first rotation step).
	h2, err := sm.Submit(noopService("free"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.WaitReady(ctx, h2.UID()); err != nil {
		t.Fatal(err)
	}
	if h2.Pilot() != p1.UID() {
		t.Fatalf("unpinned service on %s, want %s", h2.Pilot(), p1.UID())
	}
	// pinning to an unknown pilot fails at submit
	bad := noopService("lost")
	bad.Pilot = "pilot.nowhere.0001"
	if _, err := sm.Submit(bad); err == nil {
		t.Fatal("Submit accepted a service pinned to an unknown pilot")
	}
}

// TestServiceRoutingShapeAware drives the router seam with capacity-fit
// on mismatched pilots: a GPU service submitted with the thin (GPU-less)
// pilot first in rotation must still land on the fat pilot — the
// shape-blind seed round-robin would have wedged it.
func TestServiceRoutingShapeAware(t *testing.T) {
	s, fatP, thinP := heteroSession(t, "capacity-fit")
	sm := s.ServiceManager()
	sm.AddPilot(thinP) // thin first: round-robin would pick it
	sm.AddPilot(fatP)
	d := spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
		ProbeInterval:   time.Hour,
		StartTimeout:    time.Hour,
	}
	h, err := sm.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	if h.Pilot() != fatP.UID() {
		t.Fatalf("GPU service on %s, want fat pilot %s", h.Pilot(), fatP.UID())
	}
}

// TestServiceFailoverReplacesAndRepublishes is the tentpole pin: the
// pilot hosting a service dies; the session re-places the service on the
// survivor through the router, re-bootstraps it under the same UID, and
// re-publishes its endpoint with a bumped generation.
func TestServiceFailoverReplacesAndRepublishes(t *testing.T) {
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
	h, err := sm.Submit(noopService("svc"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	if h.Pilot() != p1.UID() {
		t.Fatalf("service on %s, want first pilot %s", h.Pilot(), p1.UID())
	}
	reg := s.EndpointRegistry()
	ep1, gen, ok := reg.Resolve(h.UID())
	if !ok || gen != 1 {
		t.Fatalf("initial publication: ok=%v gen=%d", ok, gen)
	}

	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitReplacements(t, h, 1)
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatalf("re-placed service never became ready: %v", err)
	}
	if h.Pilot() != p2.UID() {
		t.Fatalf("re-placed service on %s, want survivor %s", h.Pilot(), p2.UID())
	}
	ep2, gen2, ok := reg.Resolve(h.UID())
	if !ok || gen2 != 2 {
		t.Fatalf("re-publication: ok=%v gen=%d", ok, gen2)
	}
	if ep2.Address == ep1.Address {
		t.Fatalf("re-published endpoint kept the dead address %s", ep2.Address)
	}
	if ep2.ServiceUID != h.UID() {
		t.Fatalf("stable UID broken: %s vs %s", ep2.ServiceUID, h.UID())
	}
	// the re-placed service serves
	cl, err := s.DialService(platform.Addr("delta", "", "client.0001"), h.UID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Infer(ctx, "post-failover", 0); err != nil {
		t.Fatalf("inference after failover: %v", err)
	}
	select {
	case <-h.Done():
		t.Fatalf("handle settled during failover: %v", h.Err())
	default:
	}
}

// TestServicePinnedSurfacesPilotStopped pins the pinned-service error
// path: no migration, the handle fails with pilot.ErrPilotStopped and the
// registry entry is withdrawn.
func TestServicePinnedSurfacesPilotStopped(t *testing.T) {
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
	d := noopService("pinned")
	d.Pilot = p1.UID()
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
	select {
	case <-h.Done():
	case <-ctx.Done():
		t.Fatal("pinned service never settled after its pilot stopped")
	}
	if !errors.Is(h.Err(), pilot.ErrPilotStopped) {
		t.Fatalf("pinned service err = %v, want pilot.ErrPilotStopped", h.Err())
	}
	if h.Replacements() != 0 {
		t.Fatalf("pinned service re-placed %d times", h.Replacements())
	}
	if _, _, ok := s.EndpointRegistry().Resolve(h.UID()); ok {
		t.Fatal("dead pinned service still resolvable")
	}
}

// TestServiceFailoverNoSurvivorFails: with no surviving pilot the service
// settles with an error instead of wedging.
func TestServiceFailoverNoSurvivorFails(t *testing.T) {
	s := newSession(t, 100000)
	sm := s.ServiceManager()
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm.AddPilot(p1)
	h, err := sm.Submit(noopService("svc"))
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
	select {
	case <-h.Done():
	case <-ctx.Done():
		t.Fatal("orphaned service never settled")
	}
	if !errors.Is(h.Err(), pilot.ErrPilotStopped) {
		t.Fatalf("err = %v, want pilot.ErrPilotStopped", h.Err())
	}
}

// TestServiceFailoverHooksSingleWinner: a pilot shutdown that races its
// service's bootstrap reaches the failover decision twice — from the
// shutdown (the instance it terminates, or the pilot's own end) and from the
// bootstrap failing on its own goroutine — and exactly one of them re-places
// the service, once, on the survivor.
func TestServiceFailoverHooksSingleWinner(t *testing.T) {
	for i := 0; i < 20; i++ {
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
		h, err := sm.Submit(noopService("svc"))
		if err != nil {
			t.Fatal(err)
		}
		if err := p1.Shutdown(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err = sm.WaitReady(ctx, h.UID())
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if h.Replacements() != 1 || h.Pilot() != p2.UID() {
			t.Fatalf("round %d: %d replacements, on %s; want 1, on the survivor %s", i, h.Replacements(), h.Pilot(), p2.UID())
		}
		if n := len(p2.Services().List()); n != 1 {
			t.Fatalf("round %d: the survivor hosts %d instances, want 1", i, n)
		}
		s.Close()
	}
}

// TestServiceFailoverClientContrast contrasts the two client styles the
// svcfail ablation measures: across a failover, a client that cached the
// raw endpoint errors on every request, while a registry-resolving client
// recovers all of them.
func TestServiceFailoverClientContrast(t *testing.T) {
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
	h, err := sm.Submit(noopService("svc"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}

	caching, err := s.Dial(platform.Addr("delta", "", "cache-client"), h.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer caching.Close()
	resolving, err := s.DialService(platform.Addr("delta", "", "resolve-client"), h.UID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resolving.Close()
	if _, _, err := caching.Infer(ctx, "pre", 0); err != nil {
		t.Fatalf("caching pre-kill: %v", err)
	}
	if _, _, err := resolving.Infer(ctx, "pre", 0); err != nil {
		t.Fatalf("resolving pre-kill: %v", err)
	}

	genBefore := s.EndpointRegistry().Generation(h.UID())
	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EndpointRegistry().AwaitNewer(ctx, h.UID(), genBefore); err != nil {
		t.Fatalf("failover re-publication never landed: %v", err)
	}

	const post = 8
	cachingOK, resolvingOK := 0, 0
	for i := 0; i < post; i++ {
		if _, _, err := caching.Infer(ctx, "post", 0); err == nil {
			cachingOK++
		}
		if _, _, err := resolving.Infer(ctx, "post", 0); err == nil {
			resolvingOK++
		}
	}
	if cachingOK != 0 {
		t.Fatalf("endpoint-caching client recovered %d/%d requests against a dead address", cachingOK, post)
	}
	if resolvingOK != post {
		t.Fatalf("registry-resolving client recovered %d/%d requests", resolvingOK, post)
	}
	if resolving.Reresolved() != 1 {
		t.Fatalf("resolver re-resolved %d times, want 1", resolving.Reresolved())
	}
}

// TestServiceWaitReadyRacingSubmit observes handles through Get while
// Submit is still dispatching them — the window in which the handle has
// no instance yet — and waits for readiness on a virtual clock: WaitReady
// must return on Submit's own signal, with no timer on any clock and no
// simulated time passing.
func TestServiceWaitReadyRacingSubmit(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	s, err := NewSession(SessionConfig{Seed: 42, Clock: clock, FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	sm := s.ServiceManager()
	sm.AddPilot(p)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const rounds = 64
	early := 0 // handles observed before their instance was installed
	for i := 0; i < rounds; i++ {
		d := noopService("raced")
		d.UID = fmt.Sprintf("raced.%03d", i)
		ready := make(chan error, 1)
		spinning := make(chan struct{})
		go func() {
			close(spinning)
			for {
				if h, ok := sm.Get(d.UID); ok {
					if h.Instance() == nil {
						early++
					}
					ready <- h.WaitReady(ctx)
					return
				}
				runtime.Gosched()
			}
		}()
		<-spinning
		if _, err := sm.Submit(d); err != nil {
			t.Fatal(err)
		}
		if err := <-ready; err != nil {
			t.Fatalf("round %d: WaitReady = %v", i, err)
		}
	}
	if now := clock.Now(); !now.Equal(DefaultOrigin) {
		t.Fatalf("clock advanced to %s while waiting for readiness", now)
	}
	t.Logf("%d of %d handles observed before their instance", early, rounds)
}

// failPicker is a loadbal.Picker that must never be consulted.
type failPicker struct{ t *testing.T }

func (p failPicker) PickIndex(loadbal.LoadView, int64) int {
	p.t.Error("picker consulted for a group of one")
	return 0
}

// TestDialServiceGroupOfOne pins the contract that lets DialService hand
// every caller a balancer: on an unscaled service it is the base UID's
// resolver — Pick is the base UID, the picker is never consulted, and a
// pilot death is followed with exactly one re-resolution.
func TestDialServiceGroupOfOne(t *testing.T) {
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
	h, err := sm.Submit(noopService("svc"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	cl, err := s.DialService(platform.Addr("delta", "", "one-client"), h.UID(), failPicker{t})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Pick(); got != h.UID() {
		t.Fatalf("Pick = %s, want the base UID %s", got, h.UID())
	}
	if _, _, err := cl.Infer(ctx, "pre", 0); err != nil {
		t.Fatalf("pre-kill: %v", err)
	}
	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// no wait for the re-publication: the request parks through it
	for i := 0; i < 4; i++ {
		if _, _, err := cl.Infer(ctx, "post", 0); err != nil {
			t.Fatalf("post-kill request %d: %v", i, err)
		}
	}
	if got := cl.Pick(); got != h.UID() {
		t.Fatalf("Pick after failover = %s, want %s", got, h.UID())
	}
	if cl.Reresolved() != 1 {
		t.Fatalf("re-resolved %d times, want 1", cl.Reresolved())
	}
}

// TestServiceAgentTerminationWithdrawsRegistry: a graceful termination
// initiated below the session (agent-level Terminate — the control
// channel's CtlTerminate path) must still tombstone the session registry
// entry when the watcher settles the handle, or parked resolvers would
// wait forever for a re-publication.
func TestServiceAgentTerminationWithdrawsRegistry(t *testing.T) {
	s := newSession(t, 100000)
	sm := s.ServiceManager()
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm.AddPilot(p1)
	h, err := sm.Submit(noopService("svc"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	// terminate below the session: the watcher, not Terminate, must clean
	// the session registry
	if err := p1.Services().Terminate(h.UID(), false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-ctx.Done():
		t.Fatal("agent-terminated service never settled at the session")
	}
	if h.Err() != nil {
		t.Fatalf("graceful agent termination err = %v", h.Err())
	}
	if _, _, ok := s.EndpointRegistry().Resolve(h.UID()); ok {
		t.Fatal("agent-terminated service still resolvable in the session registry")
	}
}

// TestServiceTerminateWithdrawsRegistry: graceful termination settles the
// handle without error and tombstones the registry entry.
func TestServiceTerminateWithdrawsRegistry(t *testing.T) {
	s := newSession(t, 100000)
	sm := s.ServiceManager()
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm.AddPilot(p1)
	h, err := sm.Submit(noopService("svc"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	if err := sm.Terminate(h.UID(), true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-ctx.Done():
		t.Fatal("terminated service never settled")
	}
	if h.Err() != nil {
		t.Fatalf("graceful terminate err = %v", h.Err())
	}
	if h.State() != states.ServiceDone {
		t.Fatalf("state = %s", h.State())
	}
	if _, _, ok := s.EndpointRegistry().Resolve(h.UID()); ok {
		t.Fatal("terminated service still resolvable")
	}
}

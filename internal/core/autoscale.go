package core

import (
	"fmt"
	"time"

	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// This file implements the session autoscaler: the control loop that
// closes the paper's declared-future-work loop by scaling a service's
// replica count with demand. A service submitted with MaxReplicas > 1
// gets a per-handle loop on the session clock that each ScaleInterval
// reads the honest per-endpoint queue gauges (serving.Server's Queued
// split, PR-8), publishes them as registry load reports for balancing
// clients, and spawns or retires replica instances under the logical
// service UID.
//
// Replicas are ordinary pilot-level services named <uid>.rN, placed
// through the manager's placer like any service and auto-mirrored into the
// session EndpointRegistry by the pilot publish hook (handle-less
// services mirror unconditionally, with the session incarnation
// stamped). They are deliberately not journaled: replica count is
// derived from demand, so after a crash recovery the autoscaler simply
// re-derives it instead of replaying it.
//
// Determinism contract: on an auto-advancing virtual clock the loop
// goroutine is clock-registered, and it NEVER blocks on anything but
// clock.Sleep — no WaitReady, no Drain. A registered goroutine parked on
// a channel would freeze the clock and deadlock every in-flight request
// sleep. Spawns are therefore fire-and-forget (the replica's bootstrap
// runs on its own clock-registered goroutine and is observed ACTIVE on a
// later tick) and retires are two-phase: leave the balancing group now,
// then terminate on a later tick once the replica reports zero queued
// and zero in-flight — at which point Stop is sleep-free.

// replicaRef tracks one autoscaled replica instance under a Service
// handle.
type replicaRef struct {
	uid      string
	inst     *service.Instance
	p        *pilot.Pilot
	member   bool // admitted to the registry balancing group (seen ACTIVE)
	draining bool // removed from balancing; terminated once empty
}

// standbyRef tracks one warm standby: a fully bootstrapped instance of
// the service, named <uid>.sN and hosted on a pilot distinct from the
// base instance's where the topology allows, held suspended in the
// registry until a failover promotes it.
type standbyRef struct {
	uid  string
	inst *service.Instance
	p    *pilot.Pilot
	held bool // seen ACTIVE and suspended: ready for promotion
}

// applyScaleDefaults fills the autoscaler knobs of a scaled description.
func applyScaleDefaults(d *spec.ServiceDescription) {
	if d.MinReplicas == 0 {
		d.MinReplicas = 1
	}
	if d.ScaleInterval <= 0 {
		d.ScaleInterval = 2 * time.Second
	}
	if d.ScaleUpQueue <= 0 {
		d.ScaleUpQueue = 4
	}
	if d.ScaleDownQueue <= 0 {
		d.ScaleDownQueue = 1
	}
	if d.ScaleStabilize <= 0 {
		d.ScaleStabilize = 3
	}
}

// startAutoscaler launches h's autoscale loop, clock-registered on a
// runnability-accounting clock (the clock.Go rule: register before
// spawn).
func (sm *ServiceManager) startAutoscaler(h *Service) {
	if run := simtime.RunnersOf(sm.sess.clock); run != nil {
		run.AddRunner()
		go func() {
			defer run.DoneRunner()
			sm.autoscale(h)
		}()
	} else {
		go sm.autoscale(h)
	}
}

// autoscale is the per-handle control loop: one evaluation per
// ScaleInterval of the session clock until the logical service reaches a
// final state, then a best-effort teardown of surviving replicas.
func (sm *ServiceManager) autoscale(h *Service) {
	for {
		sm.sess.clock.Sleep(h.desc.ScaleInterval)
		select {
		case <-h.Done():
			sm.scaleShutdown(h)
			return
		default:
		}
		sm.scaleTick(h)
	}
}

// scaleTick runs one autoscaler evaluation for h.
func (sm *ServiceManager) scaleTick(h *Service) {
	d := h.desc

	h.mu.Lock()
	base := h.inst
	reps := append([]*replicaRef(nil), h.reps...)
	h.mu.Unlock()

	// Phase 1 — reconcile replica lifecycles. A replica that reached a
	// final state on its own (hosting pilot died, liveness kill) is
	// reaped, not re-placed: replica count derives from demand, and the
	// next evaluation re-spawns if the load still warrants it. A
	// bootstrapped replica is admitted to the balancing group; a drained
	// one is terminated now that Stop is sleep-free.
	kept := reps[:0]
	for _, r := range reps {
		switch {
		case r.inst.Final():
			sm.dropReplica(h, r)
		case r.draining:
			if r.inst.Queued() == 0 && r.inst.InFlight() == 0 {
				sm.reg.Withdraw(r.uid)
				_ = r.p.Services().Terminate(r.uid, false)
			} else {
				kept = append(kept, r)
			}
		default:
			if !r.member && r.inst.State() == states.ServiceActive {
				sm.reg.AddMember(h.uid, r.uid)
				r.member = true
			}
			kept = append(kept, r)
		}
	}

	// Phase 2 — read the load signal and publish it for balancing
	// clients, stamped with the session-clock read so pickers can bound
	// staleness. Serving set: the base instance plus admitted,
	// non-draining replicas.
	now := sm.sess.clock.Now()
	queued, serving := 0, 1
	if base != nil {
		queued = base.Queued()
		sm.reg.ReportLoad(h.uid, service.Load{Queued: base.Queued(), InFlight: base.InFlight(), At: now})
	}
	pending := 0
	for _, r := range kept {
		switch {
		case r.draining:
		case r.member:
			queued += r.inst.Queued()
			serving++
			sm.reg.ReportLoad(r.uid, service.Load{Queued: r.inst.Queued(), InFlight: r.inst.InFlight(), At: now})
		default:
			pending++ // bootstrap in flight: counts against the max, not the mean
		}
	}

	h.mu.Lock()
	h.reps = kept
	if serving > h.peakReps {
		h.peakReps = serving
	}
	finished := h.finished
	h.mu.Unlock()
	if finished {
		return
	}

	// Reconcile the warm-standby pool: reap dead standbys and refill the
	// deficit. Submit is non-blocking (the standby bootstraps on its own
	// clock-registered goroutine), so this keeps the tick sleep-free.
	if d.WarmStandbys > 0 {
		sm.fillStandbys(h)
	}

	// Phase 3 — the scaling decision (demand-scaled services only). Mean
	// queued requests per serving replica against the up/down thresholds;
	// scale-down waits for ScaleStabilize consecutive quiet evaluations
	// (hysteresis) and retires the newest replica, never the base
	// instance.
	if d.MaxReplicas <= 1 {
		return
	}
	mean := float64(queued) / float64(serving)
	minReps := d.MinReplicas
	if minReps < 1 {
		minReps = 1
	}
	switch {
	case serving+pending < minReps:
		h.below = 0
		sm.spawnReplica(h)
	case mean >= d.ScaleUpQueue && serving+pending < d.MaxReplicas:
		h.below = 0
		sm.spawnReplica(h)
	case mean <= d.ScaleDownQueue && pending == 0:
		h.below++
		if h.below >= d.ScaleStabilize && serving > minReps {
			h.below = 0
			sm.retireNewest(h)
		}
	default:
		h.below = 0
	}
}

// spawn places one auxiliary instance of h — an autoscaled replica or a
// warm standby: h's description under uid with the scaling knobs cleared
// (it is neither demand-scaled nor spared itself), routed like any service,
// neither journaled nor bound to the handle. The bootstrap proceeds on its
// own clock-registered goroutine (model load sleeps and all), so this never
// blocks on the clock.
func (sm *ServiceManager) spawn(h *Service, uid string, exclude map[string]bool) (*service.Instance, *pilot.Pilot, error) {
	d := h.desc
	d.UID = uid
	d.WarmStandbys, d.MinReplicas, d.MaxReplicas = 0, 0, 0
	var inst *service.Instance
	p, err := sm.place(&d.TaskDescription, exclude, func(p *pilot.Pilot) (err error) {
		inst, err = p.Services().Submit(d)
		return err
	})
	return inst, p, err
}

// spawnReplica fires off one replica bootstrap for h; the replica joins
// the balancing group when a later tick observes it ACTIVE. Placement
// failures are dropped — the next evaluation retries if demand persists.
func (sm *ServiceManager) spawnReplica(h *Service) {
	h.mu.Lock()
	h.repSeq++
	ruid := fmt.Sprintf("%s.r%d", h.uid, h.repSeq)
	h.mu.Unlock()

	inst, p, err := sm.spawn(h, ruid, nil)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.reps = append(h.reps, &replicaRef{uid: ruid, inst: inst, p: p})
	h.mu.Unlock()
}

// dropReplica takes r out of h's balancing group and out of the registry.
func (sm *ServiceManager) dropReplica(h *Service, r *replicaRef) {
	if r.member {
		sm.reg.RemoveMember(h.uid, r.uid)
	}
	sm.reg.Withdraw(r.uid)
}

// retireNewest starts the two-phase retirement of h's newest serving
// replica: drop it from the balancing group immediately (no new requests
// route to it), terminate on a later tick once its queue and in-flight
// gauges reach zero.
func (sm *ServiceManager) retireNewest(h *Service) {
	h.mu.Lock()
	var victim *replicaRef
	for i := len(h.reps) - 1; i >= 0; i-- {
		if r := h.reps[i]; r.member && !r.draining {
			victim = r
			break
		}
	}
	if victim != nil {
		victim.draining = true
		victim.member = false
	}
	h.mu.Unlock()
	if victim != nil {
		sm.reg.RemoveMember(h.uid, victim.uid)
	}
}

// scaleShutdown tears down every surviving replica and warm standby
// after the logical service reached a final state. Best-effort: the
// hosting pilots may already be gone (session close shuts them down
// first).
func (sm *ServiceManager) scaleShutdown(h *Service) {
	h.mu.Lock()
	reps := h.reps
	h.reps = nil
	standbys := h.standbys
	h.standbys = nil
	h.mu.Unlock()
	for _, r := range reps {
		sm.dropReplica(h, r)
		_ = r.p.Services().Terminate(r.uid, false)
	}
	for _, sb := range standbys {
		sm.reg.Withdraw(sb.uid)
		_ = sb.p.Services().Terminate(sb.uid, false)
	}
}

// fillStandbys reconciles h's warm-standby pool up to the declared
// WarmStandbys count: dead standbys (hosting pilot stopped, liveness
// kill) are reaped, then the deficit is spawned. Each standby is a
// pilot-level service named <uid>.sN, routed away from the base
// instance's pilot and the other standbys' pilots when the topology has
// spares, bootstrapped fire-and-forget and suspended in the registry the
// moment it reaches ACTIVE (holdStandby). Never blocks.
//
// The refill has one owner at a time: Submit before it starts h's
// autoscaler, that autoscaler's tick afterwards. The deficit is computed
// under h.mu but spawned outside it, so a second concurrent caller would
// see the same deficit and overfill the pool for good.
func (sm *ServiceManager) fillStandbys(h *Service) {
	h.mu.Lock()
	kept := h.standbys[:0]
	for _, sb := range h.standbys {
		if sb.inst.Final() {
			sm.reg.Withdraw(sb.uid)
			continue
		}
		kept = append(kept, sb)
	}
	h.standbys = kept
	deficit := h.desc.WarmStandbys - len(kept)
	finished := h.finished || h.terminated
	h.mu.Unlock()
	if finished {
		return
	}
	for i := 0; i < deficit; i++ {
		sm.spawnStandby(h)
	}
}

// spawnStandby fires off one standby bootstrap for h. Placement failures
// are dropped — the next autoscale tick refills.
func (sm *ServiceManager) spawnStandby(h *Service) {
	h.mu.Lock()
	h.sbSeq++
	suid := fmt.Sprintf("%s.s%d", h.uid, h.sbSeq)
	// Distinct-pilot preference: exclude the base instance's pilot and
	// every pilot already hosting one of h's standbys, so a single pilot
	// failure cannot take the service and its spare down together.
	exclude := map[string]bool{}
	if h.p != nil {
		exclude[h.p.UID()] = true
	}
	for _, sb := range h.standbys {
		exclude[sb.p.UID()] = true
	}
	h.mu.Unlock()

	inst, p, err := sm.spawn(h, suid, exclude)
	if err != nil {
		return
	}
	ref := &standbyRef{uid: suid, inst: inst, p: p}
	h.mu.Lock()
	h.standbys = append(h.standbys, ref)
	h.mu.Unlock()
	// Plain goroutine on purpose: it blocks on state-change channels,
	// which a clock-registered goroutine must never do.
	go sm.holdStandby(h, ref)
}

// holdStandby follows one standby bootstrap until it reaches ACTIVE,
// then suspends its registry entry: the endpoint publication (ordered
// before ACTIVE by the pilot publish hook) is retained for Peek but the
// standby is unresolvable — it serves no traffic until promoted.
func (sm *ServiceManager) holdStandby(h *Service, ref *standbyRef) {
	for {
		ch := ref.inst.Changed() // registered before the checks (lost-wakeup race)
		if ref.inst.State() == states.ServiceActive {
			break
		}
		if ref.inst.Final() {
			return // reaped by the next fillStandbys
		}
		<-ch
	}
	sm.reg.Suspend(ref.uid)
	h.mu.Lock()
	ref.held = true
	h.mu.Unlock()
}

// promoteStandby is the watcher's warm failover path: pop a held, live
// standby whose pilot survives and re-point the logical UID at it with a
// single generation-bumping publish of the standby's already-live
// endpoint. No routing, no bootstrap — parked resolvers wake straight
// into the promoted address. Returns false when no standby is
// promotable, in which case the watcher falls back to a cold
// re-placement. The drained pool is refilled by the next autoscale tick of
// h, the refill's one owner.
func (sm *ServiceManager) promoteStandby(h *Service) bool {
	for {
		h.mu.Lock()
		var ref *standbyRef
		idx := -1
		for i, sb := range h.standbys {
			if sb.held && !sb.inst.Final() && sb.p.State() == states.PilotActive {
				ref, idx = sb, i
				break
			}
		}
		if ref == nil {
			h.mu.Unlock()
			return false
		}
		h.standbys = append(h.standbys[:idx], h.standbys[idx+1:]...)
		h.mu.Unlock()

		ep, _, ok := sm.reg.Peek(ref.uid)
		if !ok {
			// Published record already gone (withdrawn by a racing
			// teardown): discard this standby and try the next.
			sm.reg.Withdraw(ref.uid)
			_ = ref.p.Services().Terminate(ref.uid, false)
			continue
		}
		// Point h at the promoted instance before publishing, so the
		// mirror guard attributes the new pilot's publications to the
		// handle and parked resolvers that wake on the publish observe a
		// consistent handle.
		h.install(ref.inst, ref.p, &h.promotions)

		sm.sess.journalAppend(journal.KindBind, journal.BindBody{Entity: "service", UID: h.uid, Pilot: ref.p.UID()})
		ep.ServiceUID = h.uid
		ep.Incarnation = sm.sess.Incarnation()
		ep.PublishedAt = sm.sess.clock.Now()
		_, _ = sm.reg.Publish(ep)
		return true
	}
}

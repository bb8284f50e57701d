package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/pilot"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/states"
)

// ServiceManager submits service tasks across pilots and aggregates
// endpoint discovery over local pilots and remote registrations. Like the
// TaskManager, it binds work to pilots through the session's pluggable
// Router — a service is a task with raised priority, routed over the same
// pilot shape/snapshot probes — and it survives pilot churn: when the
// pilot hosting a service stops, the service is re-placed on a surviving
// pilot through the router, re-bootstrapped under its stable UID, and its
// endpoint atomically re-published in the session EndpointRegistry with a
// bumped generation, so registry-resolving clients follow it while the
// dead address is never handed out again. Services pinned to a pilot
// (ServiceDescription.Pilot) are never re-placed: the pilot's death
// surfaces as pilot.ErrPilotStopped, mirroring task semantics.
type ServiceManager struct {
	sess   *Session
	reg    *service.EndpointRegistry
	placer // pilots, router, closed, and mu, which also guards the tables below

	seq      int
	services map[string]*Service
}

// Service is a session-level service handle: it follows one logical
// service across failure-driven re-placements. The pilot-level instance
// underneath may be replaced when a pilot dies, but the UID, description
// and completion channel stay.
type Service struct {
	handle
	sm   *ServiceManager
	desc spec.ServiceDescription

	// guarded by handle.mu. inst is the current pilot-level base instance:
	// under h.uid normally, under the promoted standby's <uid>.sN after a
	// promotion, which is the UID the agent-facing paths must address it by.
	inst         *service.Instance
	swapped      chan struct{} // closed and re-made whenever inst is installed or replaced
	replacements int
	terminated   bool

	// Autoscaler state (see autoscale.go): replica instances spawned
	// under this logical UID, the replica UID sequence, the consecutive
	// below-threshold tick count (scale-down hysteresis), and the peak
	// serving-replica count observed. Mutated only by the handle's
	// autoscale loop; guarded by mu for the accessors.
	reps     []*replicaRef
	repSeq   int
	below    int
	peakReps int

	// Warm-standby state (see autoscale.go): pre-bootstrapped instances
	// held suspended in the registry, the standby UID sequence, and the
	// count of promotions (single-publish failovers).
	standbys   []*standbyRef
	sbSeq      int
	promotions int
}

// newService returns the unsettled handle for d, whose UID is final.
func (sm *ServiceManager) newService(d spec.ServiceDescription) *Service {
	return &Service{
		handle: handle{uid: d.UID},
		sm:     sm, desc: d, swapped: make(chan struct{}),
	}
}

// install makes inst on p the handle's current instance and wakes every
// WaitReady parked on the previous one (or on none). bump, when non-nil,
// is the failover counter the swap accounts to, raised under the same
// lock so a woken waiter already reads it.
func (h *Service) install(inst *service.Instance, p *pilot.Pilot, bump *int) {
	h.mu.Lock()
	h.inst, h.p = inst, p
	if bump != nil {
		*bump++
	}
	close(h.swapped)
	h.swapped = make(chan struct{})
	h.mu.Unlock()
}

// Description returns the submitted description (after defaulting).
func (h *Service) Description() spec.ServiceDescription { return h.desc }

// Instance returns the current pilot-level instance. It changes across
// re-placements and is nil for the instant between routing and dispatch;
// prefer the handle's own accessors, which tolerate that window.
func (h *Service) Instance() *service.Instance {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inst
}

// State returns the current lifecycle state of the live instance (NEW
// while dispatch is still in flight).
func (h *Service) State() states.State {
	if inst := h.Instance(); inst != nil {
		return inst.State()
	}
	return states.ServiceNew
}

// Endpoint returns the service's current endpoint: the session registry's
// live, generation-stamped record when published, the instance's own view
// otherwise (zero before publication).
func (h *Service) Endpoint() proto.Endpoint {
	if ep, _, ok := h.sm.reg.Resolve(h.uid); ok {
		return ep
	}
	if inst := h.Instance(); inst != nil {
		return inst.Endpoint()
	}
	return proto.Endpoint{}
}

// Bootstrap returns the live instance's measured BT components. After a
// re-placement these are the new instance's — the service paid a fresh
// bootstrap on its new pilot.
func (h *Service) Bootstrap() metrics.Breakdown {
	if inst := h.Instance(); inst != nil {
		return inst.Bootstrap()
	}
	return metrics.Breakdown{}
}

// Queued returns requests admitted but not yet executing, summed across
// the base instance and any serving replicas — the backlog signal the
// autoscaler watches.
func (h *Service) Queued() int { return h.sumServing((*service.Instance).Queued) }

// InFlight returns requests currently executing, summed across the base
// instance and any serving replicas.
func (h *Service) InFlight() int { return h.sumServing((*service.Instance).InFlight) }

func (h *Service) sumServing(gauge func(*service.Instance) int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	if h.inst != nil {
		n = gauge(h.inst)
	}
	for _, r := range h.reps {
		if r.member && !r.draining {
			n += gauge(r.inst)
		}
	}
	return n
}

// Replicas returns the current serving-replica count: the base instance
// plus every autoscaled replica admitted to the balancing group (1 for
// unscaled services).
func (h *Service) Replicas() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 1
	for _, r := range h.reps {
		if r.member && !r.draining {
			n++
		}
	}
	return n
}

// PeakReplicas returns the highest serving-replica count the autoscaler
// reached over the handle's lifetime (1 for unscaled services).
func (h *Service) PeakReplicas() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.peakReps < 1 {
		return 1
	}
	return h.peakReps
}

// Kill injects a service-process crash into the live instance (failure
// injection for tests; the liveness probe detects it).
func (h *Service) Kill() {
	if inst := h.Instance(); inst != nil {
		inst.Kill()
	}
}

// Replacements counts how many times the session re-placed this service
// on a new pilot after its previous one stopped — cold failovers that
// paid a fresh bootstrap. Warm-standby promotions are counted separately
// by Promotions.
func (h *Service) Replacements() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.replacements
}

// Promotions counts how many times a failover was absorbed by promoting
// a warm standby: a single registry publish, no re-bootstrap.
func (h *Service) Promotions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.promotions
}

// Standbys returns the number of warm standbys currently held ready for
// promotion (bootstrapped, ACTIVE, suspended in the registry).
func (h *Service) Standbys() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, sb := range h.standbys {
		if sb.held && !sb.inst.Final() {
			n++
		}
	}
	return n
}

// WaitReady blocks until the service is ACTIVE (following it across
// re-placements: during a failover it waits for the replacement instead
// of surfacing the transient failure), or returns the final error when
// the service fails for good.
func (h *Service) WaitReady(ctx context.Context) error {
	for {
		h.mu.Lock()
		inst := h.inst
		finished, err := h.finished, h.err
		swapped := h.swapped
		h.mu.Unlock()
		if finished {
			if err == nil {
				err = fmt.Errorf("core: service %s reached a final state before ACTIVE", h.uid)
			}
			return err
		}
		if inst == nil {
			// dispatch in flight (handle observed through Get between
			// routing and submission): Submit signals swapped when it
			// installs the instance, and finishes the handle if it cannot
			select {
			case <-swapped:
			case <-h.Done():
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if inst.State() == states.ServiceActive {
			return nil
		}
		ch := inst.Changed()
		// re-check after registering the waiter (lost-wakeup race), then
		// wait on whichever happens first: a state transition, a
		// re-placement swap, or the handle settling.
		if inst.State() == states.ServiceActive {
			return nil
		}
		select {
		case <-ch:
		case <-swapped:
		case <-h.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// mirrorPublish is the pilot publish hook's session half: it mirrors an
// endpoint publication into the session registry unless the publishing
// pilot is no longer the service's current host — a bootstrap straggling
// past its pilot's death must not overwrite the failover re-publication
// with a dead address. Services without a session handle (submitted
// directly to a pilot's agent manager) mirror unconditionally.
//
// Like the pilot-side stopped guard this is check-then-act: a straggler
// publishing in the instant between passing this check and the watcher
// re-pointing h.p is mirrored anyway, but it is then superseded by the
// failover re-publication's higher generation (resolvers that woke into
// the dead address retry into the newer one). Across sessions the
// registry's incarnation fence is airtight: the publication is stamped
// with the current session incarnation, so after a crash recovery a
// zombie publisher from the previous incarnation is rejected outright.
func (sm *ServiceManager) mirrorPublish(pilotUID string, ep proto.Endpoint) {
	if h, ok := sm.Get(ep.ServiceUID); ok {
		if host := h.Pilot(); host != "" && host != pilotUID {
			return
		}
	}
	ep.Incarnation = sm.sess.Incarnation()
	_, _ = sm.reg.Publish(ep)
}

// AddPilot attaches a pilot to the service manager.
func (sm *ServiceManager) AddPilot(p *pilot.Pilot) {
	sm.mu.Lock()
	sm.pilots = append(sm.pilots, p)
	sm.mu.Unlock()
}

// Submit routes one service description to a pilot and starts its
// bootstrap. Routing mirrors the TaskManager: a description pinned to a
// pilot (ServiceDescription.Pilot) goes exactly there or fails, anything
// else is the Router's decision over the live pilot snapshots — made with
// the service's raised priority already applied, since that is what the
// agent scheduler will see (routers see the embedded TaskDescription: a
// service is a task with raised priority).
func (sm *ServiceManager) Submit(d spec.ServiceDescription) (*Service, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Priority == 0 {
		d.Priority = spec.ServicePriority
	}
	if d.MaxReplicas > 1 || d.WarmStandbys > 0 {
		applyScaleDefaults(&d)
	}
	sm.mu.Lock()
	if d.UID == "" {
		sm.seq++
		d.UID = fmt.Sprintf("%s.svc.%04d", sm.sess.uid, sm.seq)
	}
	if _, dup := sm.services[d.UID]; dup {
		sm.mu.Unlock()
		return nil, fmt.Errorf("core: duplicate service UID %s", d.UID)
	}
	// The handle is reachable (Get, WaitReady) from here on; its instance
	// stays nil until dispatch returns and every accessor tolerates that
	// window.
	h := sm.newService(d)
	sm.services[d.UID] = h
	sm.mu.Unlock()

	var inst *service.Instance
	p, err := sm.place(&h.desc.TaskDescription, nil, func(p *pilot.Pilot) (err error) {
		// Description, then binding, journaled before the dispatch: a crash
		// in between replays as a service bound to a pilot that never heard
		// of it, which Recover re-places.
		sm.sess.journalAppend(journal.KindService, journal.ServiceBody{UID: h.uid, Desc: h.desc})
		inst, err = sm.bind(h, p)
		return err
	})
	if err != nil {
		// Seal and drop the handle: a WaitReady that found it through Get
		// must not outlive it.
		h.finish(err)
		sm.mu.Lock()
		delete(sm.services, h.uid)
		sm.mu.Unlock()
		return nil, err
	}
	h.install(inst, p, nil)
	go sm.watch(h)
	if d.WarmStandbys > 0 {
		sm.fillStandbys(h)
	}
	if d.MaxReplicas > 1 || d.WarmStandbys > 0 {
		// Standby-only services run the autoscaler too: its tick
		// reconciles dead standbys, refills the pool, and publishes the
		// load reports balancing clients steer by (the scaling decision
		// itself stays gated on MaxReplicas > 1).
		sm.startAutoscaler(h)
	}
	return h, nil
}

// bind is the dispatch step of a handle-level placement (first submission
// and failover re-placement): it points h at p before the bootstrap can
// publish, so the publish mirror accepts the publication and rejects any
// straggler from a previous host, journals the binding, and submits h's
// description to p under the stable UID.
func (sm *ServiceManager) bind(h *Service, p *pilot.Pilot) (*service.Instance, error) {
	h.mu.Lock()
	h.p = p
	h.mu.Unlock()
	sm.sess.journalAppend(journal.KindBind, journal.BindBody{Entity: "service", UID: h.uid, Pilot: p.UID()})
	return p.Services().Submit(h.desc)
}

// watch follows one logical service across instances (endpoint
// publication itself rides the pilot's OnServicePublish hook, ordered
// before ACTIVE): on the hosting pilot stopping it re-places the service
// (or fails a pinned one with pilot.ErrPilotStopped); instance failures
// with a healthy pilot — bad model, liveness kill — settle the handle.
//
// The settle-vs-replace decision keys on pilot liveness plus the
// session's terminate intent: a pilot shutdown tears ACTIVE services
// down gracefully (nil-error DONE), so a nil-error final state cannot
// mean "deliberately stopped" by itself. Terminate session-managed
// services through ServiceManager.Terminate — a direct agent-level
// Terminate that races a pilot shutdown is indistinguishable from the
// shutdown's own teardown and will be re-placed.
func (sm *ServiceManager) watch(h *Service) {
	for {
		h.mu.Lock()
		inst, p := h.inst, h.p
		h.mu.Unlock()

	settled:
		for {
			ch := inst.Changed() // registered before the check (lost-wakeup race)
			if inst.Final() {
				break
			}
			select {
			case <-ch:
			case <-p.Stopped():
				break settled
			}
		}
		// An instance that settled by itself may still owe that to its pilot
		// shutting down (the stop channel closes before the service teardown
		// starts, so this observation is ordered).
		pilotDead := false
		select {
		case <-p.Stopped():
			pilotDead = true
		default:
		}
		h.mu.Lock()
		terminated := h.terminated
		h.mu.Unlock()

		if terminated || !pilotDead {
			// The handle is settling for good: session Terminate, an
			// agent-level graceful termination via the control channel, or
			// an own failure on a healthy pilot.
			sm.settle(h, inst.Err())
			return
		}
		if h.desc.Pilot != "" {
			// Pinned services mirror pinned-task semantics: surface the
			// pilot's death instead of migrating.
			sm.settle(h, fmt.Errorf("core: service %s pinned to pilot %s: %w",
				h.uid, h.desc.Pilot, pilot.ErrPilotStopped))
			return
		}
		// A session closing down tears its pilots down too; a watcher that
		// observes its pilot's death in that window must settle instead of
		// racing Close for the survivors (the re-placed instance would be
		// orphaned on a pilot the session no longer manages).
		if sm.isClosed() {
			sm.settle(h, ErrSessionClosed)
			return
		}
		// Failure-driven re-placement: suspend resolution (clients park in
		// AwaitNewer instead of being handed the dead address), then prefer
		// promoting a warm standby — the instance is already bootstrapped
		// and ACTIVE on a surviving pilot, so failover is one registry
		// publish instead of a fresh boot/launch/publish cycle. Only when
		// no standby survives does the watcher fall back to routing the
		// description over the survivors and re-bootstrapping.
		sm.reg.Suspend(h.uid)
		if sm.promoteStandby(h) {
			continue
		}
		newInst, newP, err := sm.replace(h)
		if err != nil {
			sm.settle(h, err)
			return
		}
		h.install(newInst, newP, &h.replacements)
	}
}

// settle seals h for good. The registry entry is tombstoned first —
// idempotent after a Terminate — so parked resolvers fail with
// ErrWithdrawn instead of waiting forever for a re-publication.
func (sm *ServiceManager) settle(h *Service, err error) {
	sm.reg.Withdraw(h.uid)
	h.finish(err)
}

// replace places h's description on a surviving pilot and re-submits it
// under the stable UID; the caller installs the result.
func (sm *ServiceManager) replace(h *Service) (*service.Instance, *pilot.Pilot, error) {
	var inst *service.Instance
	p, err := sm.place(&h.desc.TaskDescription, nil, func(p *pilot.Pilot) (err error) {
		inst, err = sm.bind(h, p)
		return err
	})
	if errors.Is(err, ErrSessionClosed) {
		return nil, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: service %s lost its pilot: %w (%v)",
			h.uid, pilot.ErrPilotStopped, err)
	}
	// Close may have slipped in between the placement and here: the
	// re-placed instance would outlive the session on a pilot it no longer
	// manages. Undo best-effort and settle — every caller treats
	// ErrSessionClosed as final.
	if sm.isClosed() {
		_ = p.Services().Terminate(h.uid, false)
		return nil, nil, ErrSessionClosed
	}
	return inst, p, nil
}

// WaitReady blocks until every listed service is ACTIVE (or any fails for
// good). During a failover it waits for the re-placed instance rather
// than surfacing the transient pilot loss.
func (sm *ServiceManager) WaitReady(ctx context.Context, uids ...string) error {
	for _, uid := range uids {
		h, ok := sm.Get(uid)
		if !ok {
			return fmt.Errorf("core: service %s not owned by this manager", uid)
		}
		if err := h.WaitReady(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Terminate stops a managed service and withdraws its endpoint from the
// session registry (parked resolvers fail with service.ErrWithdrawn
// instead of waiting for a re-publication that will never come).
//
// Terminate targets the service's current incarnation: called while a
// failover re-placement is in flight (the replacement not yet ACTIVE),
// it returns service.ErrNotActive and the re-placement proceeds — wait
// for readiness (WaitReady) and retry to stop the migrated instance.
func (sm *ServiceManager) Terminate(uid string, drain bool) error {
	h, ok := sm.Get(uid)
	if !ok {
		return fmt.Errorf("core: service %s not owned by this manager", uid)
	}
	h.mu.Lock()
	if h.finished {
		err := h.err
		h.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: service %s already settled: %v", service.ErrNotActive, uid, err)
		}
		return fmt.Errorf("%w: service %s already terminated", service.ErrNotActive, uid)
	}
	if h.inst == nil {
		h.mu.Unlock()
		return fmt.Errorf("%w: service %s dispatch in flight", service.ErrNotActive, uid)
	}
	h.terminated = true
	// After a warm-standby promotion the pilot-level instance keeps its
	// standby UID; the agent manager must be addressed by that, not the
	// logical UID.
	p, instUID := h.p, h.inst.UID()
	h.mu.Unlock()
	if err := p.Services().Terminate(instUID, drain); err != nil {
		h.mu.Lock()
		finishedMeanwhile := h.finished
		h.terminated = false
		h.mu.Unlock()
		if finishedMeanwhile {
			// The hosting pilot died while we were terminating and the
			// watcher, observing the terminate intent, settled the handle
			// instead of re-placing it. The service is down — which is
			// exactly what Terminate asked for — so report success rather
			// than leaking the lost race as an error.
			sm.reg.Withdraw(uid)
			return nil
		}
		if errors.Is(err, service.ErrUnknownService) {
			// A failover re-placement is in flight: h.p already points at
			// the new pilot but its agent manager has not registered the
			// UID yet. Surface the documented not-active contract so
			// callers retry after WaitReady instead of treating it as a
			// hard failure.
			return fmt.Errorf("%w: service %s re-placement in flight (%v)",
				service.ErrNotActive, uid, err)
		}
		return err
	}
	sm.reg.Withdraw(uid)
	return nil
}

// Get returns a managed service handle.
func (sm *ServiceManager) Get(uid string) (*Service, bool) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	h, ok := sm.services[uid]
	return h, ok
}

// Services returns every managed service handle, sorted by UID —
// submission order for manager-assigned UIDs, which embed the session
// sequence number (caller-supplied UIDs sort lexicographically).
func (sm *ServiceManager) Services() []*Service {
	sm.mu.Lock()
	out := make([]*Service, 0, len(sm.services))
	for _, h := range sm.services {
		out = append(out, h)
	}
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].uid < out[j].uid })
	return out
}

// close stops re-placements: handles losing their pilot after session
// close settle with ErrSessionClosed instead of chasing dying pilots.
func (sm *ServiceManager) close() {
	sm.mu.Lock()
	sm.closed = true
	sm.mu.Unlock()
}

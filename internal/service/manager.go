// Package service implements the paper's central contribution: the
// service-oriented runtime extension. It provides the ServiceManager that
// complements the existing TaskManager (Fig. 2), the Service base
// behaviour (a managed process exposing a well-defined API with readiness
// and liveness management), endpoint publication, and
// the priority relation that starts services before compute tasks.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/serving"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/stager"
	"repro/internal/states"
)

// Manager errors.
var (
	ErrUnknownService = errors.New("service: unknown service")
	ErrNotActive      = errors.New("service: not active")
	// ErrHostStopped marks a service that failed because its hosting pilot
	// stopped underneath it (scheduler closed, the service still waiting for
	// cores at Close, or the pilot's stop channel closed mid-bootstrap). The
	// session-level ServiceManager treats it — together with the pilot's own
	// stop signal — as the trigger for failure-driven re-placement.
	ErrHostStopped = errors.New("service: hosting pilot stopped")
)

// Config wires a Manager into a pilot agent.
type Config struct {
	Clock  simtime.Clock
	Src    *rng.Source
	Net    *msgq.Network
	Sched  *scheduler.Scheduler
	Router *scheduler.Router
	Exec   *executor.Executor
	Stage  *stager.Manager
	// PublishOverhead is the time to communicate a service endpoint to the
	// client side — the Fig. 3 `publish` bootstrap component, sampled from
	// PublishSrc once per publication (zero-valued:
	// defaultPublishOverhead).
	PublishOverhead rng.DurationDist
	PublishSrc      *rng.Source
	// OnPublish, when set, observes every endpoint publication as part of
	// the publish bootstrap phase — after the publish overhead has been
	// paid and strictly before the service turns ACTIVE. It receives the
	// publishing instance, whose Endpoint is set. The session hooks its
	// EndpointRegistry mirror here, so a service that reports ready is
	// already resolvable session-wide (and a failover re-bootstrap
	// re-publishes with a bumped generation atomically with the new
	// instance's activation).
	OnPublish func(*Instance)
	// Stopped, when set, is closed when the hosting pilot shuts down, before
	// Close. A bootstrap looks at it at its grant and at each phase boundary
	// after, and fails with ErrHostStopped instead of publishing a dead
	// endpoint; Close then fails the services still waiting for cores.
	Stopped <-chan struct{}
	// Platform is the hosting platform's name (address prefix).
	Platform string
	// UIDPrefix namespaces generated service UIDs (e.g. the owning pilot
	// UID) so services of different pilots never collide in session-level
	// maps and transport addresses.
	UIDPrefix string
	// StateCallback, when set, observes what each To call of a service
	// instance committed (registered on each instance machine at submission).
	// The session hooks its state Updater and journal here.
	StateCallback states.BatchCallback
}

const (
	// defaultProbeInterval is used when a description leaves ProbeInterval
	// zero.
	defaultProbeInterval = 5 * time.Second
	// defaultStartTimeout bounds bootstrap when a description leaves
	// StartTimeout zero.
	defaultStartTimeout = 10 * time.Minute
)

// Manager is the ServiceManager: it owns the lifecycle of every service
// task on one pilot.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	seq      int
	services map[string]*Instance
	closed   bool
}

// defaultPublishOverhead matches Fig. 3: publish stays in the
// sub-second band, under the ~2s launch time.
func defaultPublishOverhead() rng.DurationDist {
	return rng.NormalDuration(400*time.Millisecond, 120*time.Millisecond)
}

// NewManager validates cfg and returns an empty Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Clock == nil || cfg.Src == nil || cfg.Net == nil || cfg.Sched == nil ||
		cfg.Router == nil || cfg.Exec == nil || cfg.PublishSrc == nil {
		return nil, errors.New("service: incomplete manager config")
	}
	if cfg.PublishOverhead.IsZero() {
		cfg.PublishOverhead = defaultPublishOverhead()
	}
	return &Manager{cfg: cfg, services: make(map[string]*Instance)}, nil
}

// Instance is one managed service task.
type Instance struct {
	desc    spec.ServiceDescription
	machine states.Machine
	mgr     *Manager

	mu       sync.Mutex
	server   *serving.Server
	endpoint proto.Endpoint
	alloc    *platform.Allocation
	apiSrv   msgq.Server
	// probeCtx bounds the liveness probe; a Terminate's claim or the
	// instance's final state cancels it.
	probeCtx  context.Context
	stopProbe context.CancelFunc
	stopping  bool // a Terminate or the probe has claimed the stop and the teardown
	// down fires when the instance is killed: its backend stops answering.
	down    simtime.Latch
	failErr error
	// ready fires when the instance turns ACTIVE or reaches a final state.
	ready simtime.Latch

	// bootstrap components (Fig. 3)
	launchTime  time.Duration
	initTime    time.Duration
	publishTime time.Duration
}

// UID returns the service UID.
func (s *Instance) UID() string { return s.machine.UID() }

// State returns the current lifecycle state.
func (s *Instance) State() states.State { return s.machine.Current() }

// Endpoint returns the published endpoint (zero before publication).
func (s *Instance) Endpoint() proto.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endpoint
}

// Err returns the failure cause, if the service failed.
func (s *Instance) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failErr
}

// Final reports whether the instance reached a final lifecycle state.
func (s *Instance) Final() bool { return s.machine.IsFinal() }

// OnTransition registers cb to run after each later state transition of the
// instance, on the goroutine that makes it and after the manager's
// StateCallback. A caller that must not miss a state re-checks it after
// registering.
func (s *Instance) OnTransition(cb states.BatchCallback) { s.machine.OnTransition(cb) }

// Bootstrap returns the measured BT components: launch (placement to
// process up), init (model load), publish (endpoint communication). Valid
// once the service is ACTIVE.
func (s *Instance) Bootstrap() metrics.Breakdown {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.Breakdown{{"launch", s.launchTime}, {"init", s.initTime}, {"publish", s.publishTime}}
}

// Queued returns requests admitted to the server's queue but not yet
// being executed (0 when not active) — the backlog signal autoscaling
// and balancing read.
func (s *Instance) Queued() int {
	s.mu.Lock()
	srv := s.server
	s.mu.Unlock()
	if srv == nil {
		return 0
	}
	return srv.Queued()
}

// InFlight returns requests the server is currently executing (0 when
// not active).
func (s *Instance) InFlight() int {
	s.mu.Lock()
	srv := s.server
	s.mu.Unlock()
	if srv == nil {
		return 0
	}
	return srv.InFlight()
}

// Kill simulates a service process crash: the backend stops answering, and
// the liveness probe marks the service FAILED two probe intervals later.
// Used by failure injection tests.
func (s *Instance) Kill() {
	s.mu.Lock()
	s.down.Fire()
	srv := s.server
	s.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// Submit validates d, assigns a UID, and starts the service bootstrap
// asynchronously. The returned Instance progresses through the service
// state model; use Manager.WaitReady to gate on readiness.
func (m *Manager) Submit(d spec.ServiceDescription) (*Instance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("service: manager closed")
	}
	m.seq++
	if d.UID == "" {
		d.UID = fmt.Sprintf("%sservice.%04d", m.cfg.UIDPrefix, m.seq)
	}
	if d.Priority == 0 {
		d.Priority = spec.ServicePriority
	}
	if d.ProbeInterval <= 0 {
		d.ProbeInterval = defaultProbeInterval
	}
	if d.StartTimeout <= 0 {
		d.StartTimeout = defaultStartTimeout
	}
	inst := &Instance{desc: d, mgr: m}
	inst.machine.Init(d.UID, states.ServiceModel(), m.cfg.Clock)
	inst.probeCtx, inst.stopProbe = context.WithCancel(context.Background())
	if m.cfg.StateCallback != nil {
		inst.machine.OnTransition(m.cfg.StateCallback)
	}
	inst.machine.OnTransition(func(_ string, _ states.State, steps []states.Record) {
		to := steps[len(steps)-1].State
		final := states.ServiceModel().IsFinal(to)
		if to == states.ServiceActive || final {
			inst.mu.Lock()
			inst.ready.Fire()
			inst.mu.Unlock()
		}
		if final {
			inst.stopProbe()
		}
	})
	m.services[d.UID] = inst
	m.mu.Unlock()

	m.spawn(func() { m.bootstrap(inst) })
	return inst, nil
}

// spawn starts fn on a goroutine registered with a virtual clock (the
// clock.Go rule): a service's bootstrap and its liveness probe sleep
// simulated time, and an unregistered sleeper would let the clock move time
// while it is still runnable, destroying determinism. On real/scaled clocks
// RunnersOf is nil and this is a plain goroutine.
func (m *Manager) spawn(fn func()) { simtime.RunnersOf(m.cfg.Clock).Go(fn) }

// Get returns a managed instance.
func (m *Manager) Get(uid string) (*Instance, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.services[uid]
	return s, ok
}

// List returns all managed instances.
func (m *Manager) List() []*Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Instance, 0, len(m.services))
	for _, s := range m.services {
		out = append(out, s)
	}
	return out
}

// bootstrap takes a submitted service to the agent scheduler:
// SMGR_SCHEDULING, input staging, AGENT_SCHEDULING. The grant is a
// continuation, as a task's is: it starts launch on a goroutine registered
// with the clock, so a service waiting for cores holds no goroutine and
// simulated time moves on while it waits. Until then the service is an entry
// in the router's table, and whoever takes it out — the grant, Close, or
// bootstrap itself — is the one that goes on with it.
func (m *Manager) bootstrap(inst *Instance) {
	d := inst.desc
	if err := inst.machine.To(states.ServiceSmgrScheduling); err != nil {
		m.fail(inst, err)
		return
	}

	// input staging
	if err := inst.machine.To(states.ServiceStagingInput); err != nil {
		m.fail(inst, err)
		return
	}
	var spent time.Duration // the start so far, as StartTimeout counts it
	if m.cfg.Stage != nil && len(d.InputStaging) > 0 {
		staged, err := m.cfg.Stage.StageAll(d.InputStaging)
		if err != nil {
			m.fail(inst, err)
			return
		}
		spent = staged
	}

	// agent scheduling: services carry raised priority
	if err := inst.machine.To(states.ServiceScheduling); err != nil {
		m.fail(inst, err)
		return
	}
	queued := m.cfg.Clock.Now()
	m.cfg.Router.Then(d.UID, func(pl scheduler.Placement) {
		granted := spent + m.cfg.Clock.Now().Sub(queued)
		simtime.RunnersOf(m.cfg.Clock).Go(func() { m.launch(inst, pl, granted) })
	})
	err := m.cfg.Sched.Submit(scheduler.Request{
		UID: d.UID, Cores: d.Cores, GPUs: d.GPUs, MemGB: d.MemGB, Priority: d.Priority,
	})
	if err != nil {
		if errors.Is(err, scheduler.ErrClosed) {
			// The scheduler shut down between submission and enqueue: the
			// pilot is stopping, not the service misbehaving.
			err = fmt.Errorf("%w: %v", ErrHostStopped, err)
		}
		if m.cfg.Router.Cancel(d.UID) {
			m.fail(inst, err)
		}
		return
	}
	// Registered first, looked second: a shutdown that drained the table
	// before the continuation was in it closed Stopped before that. If Cancel
	// finds nothing, the grant or the drain has the service.
	select {
	case <-m.cfg.Stopped:
		if m.cfg.Router.Cancel(d.UID) {
			m.fail(inst, fmt.Errorf("%w: %s while scheduling", ErrHostStopped, d.UID))
		}
	default:
	}
}

// launch is a service from its grant on: launch, init and publish (the BT
// components of Fig. 3), then ACTIVE. At the grant and at each phase boundary
// after it, a stopped host or an overrun StartTimeout ends the bootstrap.
// spent is what the start took up to the grant: input staging, then the wait
// for cores on the session clock. Each phase adds its modelled duration. On a
// virtual clock the sum is the time since submission; on a scaled one, host
// stalls between the phases do not count.
func (m *Manager) launch(inst *Instance, pl scheduler.Placement, spent time.Duration) {
	d := inst.desc
	inst.mu.Lock()
	inst.alloc = pl.Alloc
	inst.mu.Unlock()
	if m.interrupted(inst, spent, "at its grant") {
		return
	}

	// launch on the target resource (BT `launch`)
	if err := inst.machine.To(states.ServiceLaunching); err != nil {
		m.fail(inst, err)
		return
	}
	launchDur := m.cfg.Exec.Launch(d.UID)
	spent += launchDur
	// The launch and init phases sleep simulated time; a pilot shutdown
	// during them must not let this bootstrap straggle on and publish a
	// dead endpoint after the session has started a failover.
	if m.interrupted(inst, spent, "after launch") {
		return
	}

	// capability initialization: model load (BT `init`)
	if err := inst.machine.To(states.ServiceInitializing); err != nil {
		m.fail(inst, err)
		return
	}
	spec_, err := llm.Lookup(d.Model)
	if err != nil {
		m.fail(inst, err)
		return
	}
	server, err := serving.New(serving.Config{
		UID:         d.UID,
		Backend:     serving.LLMBackend{M: llm.NewInstance(spec_, m.cfg.Clock, m.cfg.Src.Derive(d.UID+".model"))},
		Clock:       m.cfg.Clock,
		Src:         m.cfg.Src.Derive(d.UID + ".server"),
		Concurrency: d.Concurrency,
		QueueCap:    d.QueueCap,
		MaxBatch:    d.MaxBatch,
	})
	if err != nil {
		m.fail(inst, err)
		return
	}
	initDur, err := server.Start()
	if err != nil {
		m.fail(inst, err)
		return
	}
	spent += initDur
	if m.interrupted(inst, spent, "after init") {
		server.Stop()
		return
	}

	// endpoint publication (BT `publish`)
	if err := inst.machine.To(states.ServicePublishing); err != nil {
		server.Stop()
		m.fail(inst, err)
		return
	}
	node := pl.Alloc.Node().Name()
	addr := platform.Addr(m.cfg.Platform, node, d.UID)
	// The network's transport decides: over TCP (a pilot agent in its own
	// process) the published address is the dialable "tcp://host:port" form.
	apiSrv, err := m.cfg.Net.Bind(addr, server.Handler())
	if err != nil {
		server.Stop()
		m.fail(inst, err)
		return
	}
	// Publish the server's own address: identical to the logical addr on
	// the in-process transport, "tcp://host:port" over TCP so the endpoint
	// is dialable from other processes.
	publishDur := m.cfg.PublishOverhead.Sample(m.cfg.PublishSrc)
	if publishDur > 0 {
		m.cfg.Clock.Sleep(publishDur)
	}
	spent += publishDur
	if m.interrupted(inst, spent, "after publish") {
		_ = apiSrv.Close()
		server.Stop()
		return
	}
	ep := proto.Endpoint{
		ServiceUID:  d.UID,
		Model:       d.Model,
		Address:     apiSrv.Addr(),
		Protocol:    "msgq",
		Node:        node,
		PublishedAt: m.cfg.Clock.Now(),
	}
	inst.mu.Lock()
	inst.server = server
	inst.apiSrv = apiSrv
	inst.launchTime = launchDur
	inst.initTime = initDur
	inst.publishTime = publishDur
	inst.endpoint = ep
	inst.mu.Unlock()
	if m.cfg.OnPublish != nil {
		m.cfg.OnPublish(inst)
	}

	if err := inst.machine.To(states.ServiceActive); err != nil {
		m.fail(inst, err)
		return
	}
	// Close terminates the services that are ACTIVE when it looks; one that
	// turns ACTIVE after that finds the manager closed and stops itself.
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		_ = m.Terminate(d.UID, false)
		return
	}
	m.spawn(func() { m.probeLoop(inst) })
}

// interrupted fails inst and reports true when its host has stopped or its
// bootstrap has spent more than StartTimeout; when says where it is.
func (m *Manager) interrupted(inst *Instance, spent time.Duration, when string) bool {
	var err error
	select {
	case <-m.cfg.Stopped:
		err = fmt.Errorf("%w: %s %s", ErrHostStopped, inst.UID(), when)
	default:
		if spent > inst.desc.StartTimeout {
			err = fmt.Errorf("service %s: start timeout %s", inst.UID(), when)
		}
	}
	if err != nil {
		m.fail(inst, err)
	}
	return err != nil
}

// fail ends inst in FAILED with err and gives back the cores it holds.
func (m *Manager) fail(inst *Instance, err error) {
	inst.mu.Lock()
	inst.failErr = err
	alloc := inst.alloc
	inst.alloc = nil
	inst.mu.Unlock()
	_ = inst.machine.Fail()
	if alloc != nil {
		m.cfg.Sched.Release(alloc)
	}
}

// probeLoop is an ACTIVE instance's liveness probe. The backend stops
// answering only when the instance is killed, so the probe parks until then
// and sleeps through the two probe intervals whose misses mark the service
// FAILED and withdraw its endpoint. A Terminate ends it. On a virtual clock it
// parks and sleeps on the clock's books: the kill is detected at the same
// instant on every run.
func (m *Manager) probeLoop(inst *Instance) {
	inst.mu.Lock()
	err := inst.down.Wait(inst.probeCtx, m.cfg.Clock, &inst.mu)
	inst.mu.Unlock()
	if err != nil || simtime.SleepCtx(inst.probeCtx, m.cfg.Clock, 2*inst.desc.ProbeInterval) != nil {
		return
	}
	inst.mu.Lock()
	if inst.stopping {
		inst.mu.Unlock()
		return // a Terminate owns the stop
	}
	inst.stopping = true
	inst.failErr = errors.New("service: liveness probe failed")
	inst.mu.Unlock()
	_ = inst.machine.Fail()
	m.teardown(inst)
}

// teardown closes transports and releases resources.
func (m *Manager) teardown(inst *Instance) {
	inst.mu.Lock()
	api, alloc := inst.apiSrv, inst.alloc
	inst.apiSrv, inst.alloc = nil, nil
	inst.mu.Unlock()
	if api != nil {
		_ = api.Close()
	}
	if alloc != nil {
		m.cfg.Sched.Release(alloc)
	}
}

// WaitReady blocks until every listed service is ACTIVE (or any fails). On a
// virtual clock the caller must be registered: it parks until the last of
// them turns ACTIVE.
func (m *Manager) WaitReady(ctx context.Context, uids ...string) error {
	for _, uid := range uids {
		inst, ok := m.Get(uid)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownService, uid)
		}
		inst.mu.Lock()
		err := inst.ready.Wait(ctx, m.cfg.Clock, &inst.mu)
		inst.mu.Unlock()
		if err != nil {
			return err
		}
		if s := inst.machine.Current(); s != states.ServiceActive {
			if err := inst.Err(); err != nil {
				return err
			}
			return fmt.Errorf("service %s reached %s before ACTIVE", uid, s)
		}
	}
	return nil
}

// Terminate stops a service. With drain=true, queued requests finish
// first (ACTIVE → DRAINING → DONE); otherwise the queue is flushed with
// errors.
func (m *Manager) Terminate(uid string, drain bool) error {
	inst, ok := m.Get(uid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownService, uid)
	}
	if inst.machine.Current() != states.ServiceActive {
		return fmt.Errorf("%w: %s in %s", ErrNotActive, uid, inst.machine.Current())
	}
	// The service stays ACTIVE until its teardown is done, so the state
	// check alone admits every concurrent Terminate, Close and failing
	// probe: the stopping flag picks the one that owns the teardown.
	inst.mu.Lock()
	lost := inst.stopping
	inst.stopping = true
	srv := inst.server
	inst.mu.Unlock()
	if lost {
		return fmt.Errorf("%w: %s is already being terminated", ErrNotActive, uid)
	}
	inst.stopProbe()
	if drain {
		if err := inst.machine.To(states.ServiceDraining); err != nil {
			return err
		}
		if srv != nil {
			srv.Drain()
		}
	} else if srv != nil {
		srv.Stop()
	}
	m.teardown(inst)
	return inst.machine.To(states.ServiceDone)
}

// Close terminates every service (without drain) and refuses new
// submissions. Once the host has stopped (Config.Stopped closed), Close also
// takes the services still waiting for cores out of the router's table and
// fails them with ErrHostStopped, as the pilot's shutdown does its queued
// tasks.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	insts := make([]*Instance, 0, len(m.services))
	for _, s := range m.services {
		insts = append(insts, s)
	}
	m.mu.Unlock()
	select {
	case <-m.cfg.Stopped:
		for _, uid := range m.cfg.Router.Drain(func(uid string) bool { _, ok := m.Get(uid); return ok }) {
			inst, _ := m.Get(uid)
			m.fail(inst, fmt.Errorf("%w: %s while scheduling", ErrHostStopped, uid))
		}
	default:
	}
	for _, s := range insts {
		if s.machine.Current() == states.ServiceActive {
			_ = m.Terminate(s.UID(), false)
		}
	}
}

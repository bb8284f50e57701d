// Package service implements the paper's central contribution: the
// service-oriented runtime extension. It provides the ServiceManager that
// complements the existing TaskManager (Fig. 2), the Service base
// behaviour (a managed process exposing a well-defined API with readiness
// and liveness management), endpoint publication, control channels, and
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
	// stopped underneath it (scheduler closed, or the pilot's stop channel
	// fired while the service waited for placement). The session-level
	// ServiceManager treats it — together with the pilot's own stop signal
	// — as the trigger for failure-driven re-placement.
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
	// paid and strictly before the service turns ACTIVE. The session
	// hooks its EndpointRegistry mirror here, so a service that reports
	// ready is already resolvable session-wide (and a failover
	// re-bootstrap re-publishes with a bumped generation atomically with
	// the new instance's activation).
	OnPublish func(proto.Endpoint)
	// Stopped, when set, is closed when the hosting pilot shuts down.
	// Services still waiting for placement observe it and fail fast with
	// ErrHostStopped instead of sitting out their start timeout on a dead
	// scheduler — the same fast-fail contract pilot tasks get from the
	// pilot's stopped channel.
	Stopped <-chan struct{}
	// Platform is the hosting platform's name (address prefix).
	Platform string
	// UIDPrefix namespaces generated service UIDs (e.g. the owning pilot
	// UID) so services of different pilots never collide in session-level
	// maps and transport addresses.
	UIDPrefix string
	// StateCallback, when set, observes every committed service state
	// transition (registered on each instance machine at submission). The
	// session hooks its state Updater and journal here.
	StateCallback states.Callback
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
	machine *states.Machine
	mgr     *Manager

	mu        sync.Mutex
	server    *serving.Server
	endpoint  proto.Endpoint
	alloc     interface{ Release() }
	apiSrv    msgq.Server
	ctlSrv    msgq.Server
	probe     simtime.Ticker
	probeStop chan struct{}
	stopping  bool // a Terminate has claimed the stop; guards probeStop's close
	killed    bool
	failErr   error

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

// Changed returns a channel that fires on the instance's next state
// transition. Watchers must re-check state after registering (the usual
// lost-wakeup re-check), exactly like states.Machine.WaitChan.
func (s *Instance) Changed() <-chan states.State { return s.machine.WaitChan() }

// OnTransition registers cb to run after each later state transition of the
// instance, on the goroutine that makes it and after the manager's
// StateCallback. A caller that must not miss a state re-checks it after
// registering.
func (s *Instance) OnTransition(cb states.Callback) { s.machine.OnTransition(cb) }

// Bootstrap returns the measured BT components: launch (placement to
// process up), init (model load), publish (endpoint communication). Valid
// once the service is ACTIVE.
func (s *Instance) Bootstrap() metrics.Breakdown {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.Breakdown{Components: map[string]time.Duration{
		"launch":  s.launchTime,
		"init":    s.initTime,
		"publish": s.publishTime,
	}}
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

// Processed returns the number of requests the instance's server completed
// (0 when not active).
func (s *Instance) Processed() int64 {
	s.mu.Lock()
	srv := s.server
	s.mu.Unlock()
	if srv == nil {
		return 0
	}
	return srv.Processed()
}

// Deduped returns the number of requests the instance's server answered
// from its completed-request memory instead of re-executing (0 when not
// active).
func (s *Instance) Deduped() int64 {
	s.mu.Lock()
	srv := s.server
	s.mu.Unlock()
	if srv == nil {
		return 0
	}
	return srv.Deduped()
}

// Kill simulates a service process crash: the backend stops answering, so
// the next liveness probe marks the service FAILED. Used by failure
// injection tests.
func (s *Instance) Kill() {
	s.mu.Lock()
	s.killed = true
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
	inst := &Instance{
		desc:      d,
		machine:   states.NewMachine(d.UID, states.ServiceModel(), m.cfg.Clock),
		mgr:       m,
		probeStop: make(chan struct{}),
	}
	if m.cfg.StateCallback != nil {
		inst.machine.OnTransition(m.cfg.StateCallback)
	}
	m.services[d.UID] = inst
	m.mu.Unlock()

	// Register the bootstrap goroutine with a virtual clock (the clock.Go
	// rule): mid-session service spawns — the autoscaler's replicas — sleep
	// for real model-load time, and an unregistered sleeper would let the
	// clock move time while the bootstrap is still runnable, destroying
	// determinism. On real/scaled clocks RunnersOf is nil and this is a
	// plain goroutine.
	if v := simtime.RunnersOf(m.cfg.Clock); v != nil {
		v.Go(func() { m.bootstrap(inst) })
	} else {
		go m.bootstrap(inst)
	}
	return inst, nil
}

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

// bootstrap drives one service task through its lifecycle until ACTIVE.
func (m *Manager) bootstrap(inst *Instance) {
	fail := func(err error) {
		inst.mu.Lock()
		inst.failErr = err
		alloc := inst.alloc
		inst.alloc = nil
		inst.mu.Unlock()
		_ = inst.machine.Fail()
		if alloc != nil {
			alloc.Release()
		}
	}

	d := inst.desc
	if err := inst.machine.To(states.ServiceSmgrScheduling); err != nil {
		fail(err)
		return
	}

	// input staging
	if err := inst.machine.To(states.ServiceStagingInput); err != nil {
		fail(err)
		return
	}
	if m.cfg.Stage != nil && len(d.InputStaging) > 0 {
		if _, err := m.cfg.Stage.StageAll(d.InputStaging); err != nil {
			fail(err)
			return
		}
	}

	// agent scheduling: services carry raised priority
	if err := inst.machine.To(states.ServiceScheduling); err != nil {
		fail(err)
		return
	}
	placed := m.cfg.Router.Expect(d.UID)
	err := m.cfg.Sched.Submit(scheduler.Request{
		UID: d.UID, Cores: d.Cores, GPUs: d.GPUs, MemGB: d.MemGB, Priority: d.Priority,
	})
	if err != nil {
		m.cfg.Router.Cancel(d.UID)
		if errors.Is(err, scheduler.ErrClosed) {
			// The scheduler shut down between submission and enqueue: the
			// pilot is stopping, not the service misbehaving.
			err = fmt.Errorf("%w: %v", ErrHostStopped, err)
		}
		fail(err)
		return
	}

	// abandon cancels the placement expectation; if a grant is already
	// committed (Cancel finds no waiter), exactly one placement is in
	// flight on the buffered channel: receive it and give the capacity
	// back.
	abandon := func() {
		if !m.cfg.Router.Cancel(d.UID) {
			pl := <-placed
			m.cfg.Sched.Release(pl.Alloc)
		}
	}
	var pl scheduler.Placement
	startDeadline := m.cfg.Clock.NewTimer(d.StartTimeout)
	defer startDeadline.Stop()
	select {
	case pl = <-placed:
	case <-m.cfg.Stopped:
		abandon()
		fail(fmt.Errorf("%w: %s while scheduling", ErrHostStopped, d.UID))
		return
	case <-startDeadline.C():
		abandon()
		fail(fmt.Errorf("service %s: start timeout in scheduling", d.UID))
		return
	}

	// launch on the target resource (BT `launch`)
	if err := inst.machine.To(states.ServiceLaunching); err != nil {
		pl.Alloc.Release()
		fail(err)
		return
	}
	inst.mu.Lock()
	inst.alloc = pl.Alloc
	inst.mu.Unlock()
	launchDur := m.cfg.Exec.Launch(d.UID)

	// The launch and init phases sleep simulated time; a pilot shutdown
	// during them must not let this bootstrap straggle on and publish a
	// dead endpoint after the session has started a failover. Check the
	// stop signal at each phase boundary (the publish-phase check below
	// is the one that guards the registry).
	stopCheck := func() bool {
		select {
		case <-m.cfg.Stopped:
			fail(fmt.Errorf("%w: %s during bootstrap", ErrHostStopped, d.UID))
			return true
		default:
			return false
		}
	}
	if stopCheck() {
		return
	}

	// capability initialization: model load (BT `init`)
	if err := inst.machine.To(states.ServiceInitializing); err != nil {
		fail(err)
		return
	}
	spec_, err := llm.Lookup(d.Model)
	if err != nil {
		fail(err)
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
		fail(err)
		return
	}
	initDur, err := server.Start()
	if err != nil {
		fail(err)
		return
	}

	// endpoint publication (BT `publish`)
	if stopCheck() {
		server.Stop()
		return
	}
	if err := inst.machine.To(states.ServicePublishing); err != nil {
		server.Stop()
		fail(err)
		return
	}
	node := pl.Alloc.Node().Name()
	addr := platform.Addr(m.cfg.Platform, node, d.UID)
	// The network's transport decides: over TCP (a pilot agent in its own
	// process) the published address is the dialable "tcp://host:port" form.
	apiSrv, err := m.cfg.Net.BindVia("", addr, server.Handler())
	if err != nil {
		server.Stop()
		fail(err)
		return
	}
	ctlSrv, err := m.cfg.Net.BindVia("", addr+".ctl", m.controlHandler(inst))
	if err != nil {
		_ = apiSrv.Close()
		server.Stop()
		fail(err)
		return
	}
	// Publish the server's own address: identical to the logical addr on
	// the in-process transport, "tcp://host:port" over TCP so the endpoint
	// is dialable from other processes.
	publishDur := m.cfg.PublishOverhead.Sample(m.cfg.PublishSrc)
	if publishDur > 0 {
		m.cfg.Clock.Sleep(publishDur)
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
	inst.ctlSrv = ctlSrv
	inst.launchTime = launchDur
	inst.initTime = initDur
	inst.publishTime = publishDur
	inst.endpoint = ep
	inst.mu.Unlock()
	if m.cfg.OnPublish != nil {
		m.cfg.OnPublish(ep)
	}

	if err := inst.machine.To(states.ServiceActive); err != nil {
		fail(err)
		return
	}
	go m.probeLoop(inst)
}

// --- control channel -------------------------------------------------------

func (m *Manager) controlHandler(inst *Instance) msgq.Handler {
	return func(env proto.Envelope) proto.Envelope {
		var ctl proto.Control
		if err := env.Decode(proto.KindControl, &ctl); err != nil {
			out, _ := proto.NewEnvelope(proto.KindError, env.ID, inst.UID(), env.From, m.cfg.Clock.Now(),
				proto.ErrorBody{Origin: inst.UID(), Msg: err.Error()})
			return out
		}
		switch ctl.Command {
		case proto.CtlPing:
			inst.mu.Lock()
			srv, killed := inst.server, inst.killed
			inst.mu.Unlock()
			hb := proto.Heartbeat{ServiceUID: inst.UID(), At: m.cfg.Clock.Now()}
			if srv != nil && !killed {
				hb.Queued = srv.Queued()
				hb.InFlight = srv.InFlight()
				hb.QueueDepth = hb.Queued + hb.InFlight
				// Busy means "executing", not "has work somewhere": a
				// backlogged-but-stalled replica must not look busy.
				hb.Busy = hb.InFlight > 0
			}
			if killed || srv == nil || !srv.Ready() {
				out, _ := proto.NewEnvelope(proto.KindError, env.ID, inst.UID(), env.From, m.cfg.Clock.Now(),
					proto.ErrorBody{Origin: inst.UID(), Msg: "service not ready"})
				return out
			}
			out, _ := proto.NewEnvelope(proto.KindHeartbeat, env.ID, inst.UID(), env.From, m.cfg.Clock.Now(), hb)
			return out
		case proto.CtlDrain:
			go m.Terminate(inst.UID(), true) //nolint:errcheck
		case proto.CtlTerminate:
			go m.Terminate(inst.UID(), false) //nolint:errcheck
		}
		out, _ := proto.NewEnvelope(proto.KindControl, env.ID, inst.UID(), env.From, m.cfg.Clock.Now(), ctl)
		return out
	}
}

// probeLoop performs periodic liveness checks; two consecutive failed
// probes mark the service FAILED and withdraw its endpoint.
func (m *Manager) probeLoop(inst *Instance) {
	ticker := m.cfg.Clock.NewTicker(inst.desc.ProbeInterval)
	inst.mu.Lock()
	inst.probe = ticker
	inst.mu.Unlock()
	defer ticker.Stop()
	misses := 0
	for {
		select {
		case <-inst.probeStop:
			return
		case <-ticker.C():
			inst.mu.Lock()
			srv, killed := inst.server, inst.killed
			inst.mu.Unlock()
			alive := srv != nil && srv.Ready() && !killed
			if alive {
				misses = 0
				continue
			}
			misses++
			if misses >= 2 {
				if inst.machine.Current() == states.ServiceActive {
					inst.mu.Lock()
					inst.failErr = errors.New("service: liveness probe failed")
					inst.mu.Unlock()
					_ = inst.machine.Fail()
					m.teardown(inst)
				}
				return
			}
		}
	}
}

// teardown closes transports and releases resources.
func (m *Manager) teardown(inst *Instance) {
	inst.mu.Lock()
	api, ctl, alloc := inst.apiSrv, inst.ctlSrv, inst.alloc
	inst.apiSrv, inst.ctlSrv, inst.alloc = nil, nil, nil
	inst.mu.Unlock()
	if api != nil {
		_ = api.Close()
	}
	if ctl != nil {
		_ = ctl.Close()
	}
	if alloc != nil {
		alloc.Release()
	}
}

// WaitReady blocks until every listed service is ACTIVE (or any fails).
func (m *Manager) WaitReady(ctx context.Context, uids ...string) error {
	for _, uid := range uids {
		inst, ok := m.Get(uid)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownService, uid)
		}
		for {
			switch inst.machine.Current() {
			case states.ServiceActive:
			case states.ServiceFailed, states.ServiceCanceled, states.ServiceDone:
				err := inst.Err()
				if err == nil {
					err = fmt.Errorf("service %s reached %s before ACTIVE", uid, inst.machine.Current())
				}
				return err
			default:
				ch := inst.machine.WaitChan()
				// re-check after registering the waiter: the transition to
				// ACTIVE may have been the machine's last, in which case the
				// channel never fires (lost-wakeup race)
				if s := inst.machine.Current(); s == states.ServiceActive || inst.machine.IsFinal() {
					continue
				}
				select {
				case <-ch:
					continue
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			break
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
	// check alone admits every concurrent Terminate and Close: the
	// stopping flag picks the one that owns probeStop and the teardown.
	inst.mu.Lock()
	lost := inst.stopping
	inst.stopping = true
	srv := inst.server
	inst.mu.Unlock()
	if lost {
		return fmt.Errorf("%w: %s is already being terminated", ErrNotActive, uid)
	}
	close(inst.probeStop)
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
// submissions.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	insts := make([]*Instance, 0, len(m.services))
	for _, s := range m.services {
		insts = append(insts, s)
	}
	m.mu.Unlock()
	for _, s := range insts {
		if s.machine.Current() == states.ServiceActive {
			_ = m.Terminate(s.UID(), false)
		}
	}
}

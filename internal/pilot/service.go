package pilot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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
	"repro/internal/states"
)

const (
	// defaultProbeInterval is used when a description leaves ProbeInterval
	// zero.
	defaultProbeInterval = 5 * time.Second
	// defaultStartTimeout bounds bootstrap when a description leaves
	// StartTimeout zero.
	defaultStartTimeout = 10 * time.Minute
)

// defaultPublishOverhead matches Fig. 3: publish stays in the
// sub-second band, under the ~2s launch time.
func defaultPublishOverhead() rng.DurationDist {
	return rng.NormalDuration(400*time.Millisecond, 120*time.Millisecond)
}

// Service is one managed service task: a task with raised priority whose
// payload is a model server, published as an endpoint once it is up.
type Service struct {
	desc    spec.ServiceDescription
	machine states.Machine
	p       *Pilot

	mu       sync.Mutex
	server   *serving.Server
	endpoint proto.Endpoint
	alloc    *platform.Allocation
	apiSrv   msgq.Server
	// probeCtx bounds the liveness probe; a Terminate's claim or the
	// service's final state cancels it.
	probeCtx  context.Context
	stopProbe context.CancelFunc
	stopping  bool // a Terminate or the probe has claimed the stop and the teardown
	// down fires when the service is killed: its backend stops answering.
	down    simtime.Latch
	failErr error
	// ready fires when the service turns ACTIVE or reaches a final state.
	ready simtime.Latch

	// bootstrap components (Fig. 3)
	launchTime  time.Duration
	initTime    time.Duration
	publishTime time.Duration
}

// UID returns the service UID.
func (s *Service) UID() string { return s.machine.UID() }

// State returns the current lifecycle state.
func (s *Service) State() states.State { return s.machine.Current() }

// Endpoint returns the published endpoint (zero before publication).
func (s *Service) Endpoint() proto.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endpoint
}

// Server returns the model server behind the published endpoint (nil before
// publication).
func (s *Service) Server() *serving.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.server
}

// Err returns the failure cause, if the service failed.
func (s *Service) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failErr
}

// Final reports whether the service reached a final lifecycle state.
func (s *Service) Final() bool { return s.machine.IsFinal() }

// OnTransition registers cb to run after each later state transition of the
// service, on the goroutine that makes it and after the pilot's Transition
// hook. A caller that must not miss a state re-checks it after registering.
func (s *Service) OnTransition(cb states.BatchCallback) { s.machine.OnTransition(cb) }

// Bootstrap returns the measured BT components: launch (placement to
// process up), init (model load), publish (endpoint communication). Valid
// once the service is ACTIVE.
func (s *Service) Bootstrap() metrics.Breakdown {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.Breakdown{{"launch", s.launchTime}, {"init", s.initTime}, {"publish", s.publishTime}}
}

// Queued returns requests admitted to the server's queue but not yet
// being executed (0 when not active) — the backlog signal autoscaling
// and balancing read.
func (s *Service) Queued() int {
	if srv := s.Server(); srv != nil {
		return srv.Queued()
	}
	return 0
}

// InFlight returns requests the server is currently executing (0 when
// not active).
func (s *Service) InFlight() int {
	if srv := s.Server(); srv != nil {
		return srv.InFlight()
	}
	return 0
}

// Kill simulates a service process crash: the backend stops answering, and
// the liveness probe marks the service FAILED two probe intervals later.
// Used by failure injection tests.
func (s *Service) Kill() {
	s.mu.Lock()
	s.down.Fire()
	srv := s.server
	s.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// SubmitService validates d, assigns a UID, and starts the service bootstrap
// asynchronously. The returned Service progresses through the service state
// model; use WaitServices to gate on readiness.
func (p *Pilot) SubmitService(d spec.ServiceDescription) (*Service, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if p.machine.Current() != states.PilotActive {
		return nil, fmt.Errorf("%w: pilot %s in %s", ErrNotActive, p.UID(), p.machine.Current())
	}
	p.mu.Lock()
	p.svcSeq++
	if d.UID == "" {
		d.UID = fmt.Sprintf("%s.service.%04d", p.UID(), p.svcSeq)
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
	s := &Service{desc: d, p: p}
	s.machine.Init(d.UID, states.ServiceModel(), p.cfg.Clock)
	s.probeCtx, s.stopProbe = context.WithCancel(context.Background())
	s.machine.OnTransition(p.observe(states.EntityService))
	s.machine.OnTransition(func(_ string, _ states.State, steps []states.Record) {
		to := steps[len(steps)-1].State
		final := states.ServiceModel().IsFinal(to)
		if to == states.ServiceActive || final {
			s.mu.Lock()
			s.ready.Fire()
			s.mu.Unlock()
		}
		if final {
			s.stopProbe()
		}
	})
	p.services[d.UID] = s
	p.mu.Unlock()

	p.run.Go(s.bootstrap)
	return s, nil
}

// Service returns a managed service by UID.
func (p *Pilot) Service(uid string) (*Service, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.services[uid]
	return s, ok
}

// Services returns every managed service.
func (p *Pilot) Services() []*Service {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Service, 0, len(p.services))
	for _, s := range p.services {
		out = append(out, s)
	}
	return out
}

// bootstrap takes a submitted service to the agent scheduler:
// SMGR_SCHEDULING, input staging, AGENT_SCHEDULING. The grant is a
// continuation, as a task's is: it starts launch on a goroutine registered
// with the clock, so a service waiting for cores holds no goroutine and
// simulated time moves on while it waits. Until then the service is an entry
// in the router's table, and whoever takes it out — the grant, Shutdown, or
// bootstrap itself — is the one that goes on with it.
func (s *Service) bootstrap() {
	p, d := s.p, s.desc
	if err := s.machine.To(states.ServiceSmgrScheduling); err != nil {
		s.fail(err)
		return
	}

	// input staging
	if err := s.machine.To(states.ServiceStagingInput); err != nil {
		s.fail(err)
		return
	}
	var spent time.Duration // the start so far, as StartTimeout counts it
	if len(d.InputStaging) > 0 {
		staged, err := p.stage.StageAll(d.InputStaging)
		if err != nil {
			s.fail(err)
			return
		}
		spent = staged
	}

	// agent scheduling: services carry raised priority
	if err := s.machine.To(states.ServiceScheduling); err != nil {
		s.fail(err)
		return
	}
	queued := p.cfg.Clock.Now()
	p.router.Then(d.UID, func(pl scheduler.Placement) {
		granted := spent + p.cfg.Clock.Now().Sub(queued)
		p.run.Go(func() { s.launch(pl, granted) })
	})
	err := p.sched.Submit(scheduler.Request{
		UID: d.UID, Cores: d.Cores, GPUs: d.GPUs, MemGB: d.MemGB, Priority: d.Priority,
	})
	if err != nil {
		if errors.Is(err, scheduler.ErrClosed) {
			// The scheduler shut down between submission and enqueue: the
			// pilot is stopping, not the service misbehaving.
			err = fmt.Errorf("%w: %v", ErrPilotStopped, err)
		}
		if p.router.Cancel(d.UID) {
			s.fail(err)
		}
		return
	}
	// Registered first, looked second: a shutdown that drained the table
	// before the continuation was in it closed stopped before that. If Cancel
	// finds nothing, the grant or the drain has the service.
	select {
	case <-p.stopped:
		if p.router.Cancel(d.UID) {
			s.fail(fmt.Errorf("%w: %s while scheduling", ErrPilotStopped, d.UID))
		}
	default:
	}
}

// launch is a service from its grant on: launch, init and publish (the BT
// components of Fig. 3), then ACTIVE. At the grant and at each phase boundary
// after it, a stopped pilot or an overrun StartTimeout ends the bootstrap.
// spent is what the start took up to the grant: input staging, then the wait
// for cores on the session clock. Each phase adds its modelled duration. On a
// virtual clock the sum is the time since submission; on a scaled one, host
// stalls between the phases do not count.
func (s *Service) launch(pl scheduler.Placement, spent time.Duration) {
	p, d := s.p, s.desc
	s.mu.Lock()
	s.alloc = pl.Alloc
	s.mu.Unlock()
	if s.interrupted(spent, "at its grant") {
		return
	}

	// launch on the target resource (BT `launch`)
	if err := s.machine.To(states.ServiceLaunching); err != nil {
		s.fail(err)
		return
	}
	launchDur := p.exec.Launch(d.UID)
	spent += launchDur
	// The launch and init phases sleep simulated time; a pilot shutdown
	// during them must not let this bootstrap straggle on and publish a
	// dead endpoint after the session has started a failover.
	if s.interrupted(spent, "after launch") {
		return
	}

	// capability initialization: model load (BT `init`)
	if err := s.machine.To(states.ServiceInitializing); err != nil {
		s.fail(err)
		return
	}
	model, err := llm.Lookup(d.Model)
	if err != nil {
		s.fail(err)
		return
	}
	server, err := serving.New(serving.Config{
		UID:         d.UID,
		Backend:     serving.LLMBackend{M: llm.NewInstance(model, p.cfg.Clock, p.svcSrc.Derive(d.UID+".model"))},
		Clock:       p.cfg.Clock,
		Src:         p.svcSrc.Derive(d.UID + ".server"),
		Concurrency: d.Concurrency,
		QueueCap:    d.QueueCap,
		MaxBatch:    d.MaxBatch,
	})
	if err != nil {
		s.fail(err)
		return
	}
	initDur, err := server.Start()
	if err != nil {
		s.fail(err)
		return
	}
	spent += initDur
	if s.interrupted(spent, "after init") {
		server.Stop()
		return
	}

	// endpoint publication (BT `publish`)
	if err := s.machine.To(states.ServicePublishing); err != nil {
		server.Stop()
		s.fail(err)
		return
	}
	node := pl.Alloc.Node().Name()
	// The network's transport decides: over TCP (a pilot agent in its own
	// process) the published address is the dialable "tcp://host:port" form.
	apiSrv, err := p.cfg.Net.Bind(platform.Addr(p.cfg.Platform.Name(), node, d.UID), server.Handler())
	if err != nil {
		server.Stop()
		s.fail(err)
		return
	}
	publishDur := p.cfg.PublishOverhead.Sample(p.pubSrc)
	if publishDur > 0 {
		p.cfg.Clock.Sleep(publishDur)
	}
	spent += publishDur
	// A publication from a pilot that has already stopped is stale: the
	// session is (or will be) re-placing the service elsewhere, and mirroring
	// the dead address could overwrite the failover re-publication. This is
	// check-then-act against the stop signal, so a straggler can slip the
	// instant before shutdown; the session's current-host check narrows the
	// window, and the failover re-publication supersedes anything that slips
	// both.
	if s.interrupted(spent, "after publish") {
		_ = apiSrv.Close()
		server.Stop()
		return
	}
	// Publish the server's own address: identical to the logical addr on
	// the in-process transport, "tcp://host:port" over TCP so the endpoint
	// is dialable from other processes.
	ep := proto.Endpoint{
		ServiceUID:  d.UID,
		Model:       d.Model,
		Address:     apiSrv.Addr(),
		Protocol:    "msgq",
		Node:        node,
		PublishedAt: p.cfg.Clock.Now(),
	}
	s.mu.Lock()
	s.server = server
	s.apiSrv = apiSrv
	s.launchTime = launchDur
	s.initTime = initDur
	s.publishTime = publishDur
	s.endpoint = ep
	s.mu.Unlock()
	if cb := p.hooks.Load().OnServicePublish; cb != nil {
		cb(s)
	}

	if err := s.machine.To(states.ServiceActive); err != nil {
		s.fail(err)
		return
	}
	// Shutdown terminates the services that are ACTIVE when it looks; one
	// that turns ACTIVE after that finds the pilot stopped and stops itself.
	select {
	case <-p.stopped:
		_ = s.terminate(false)
	default:
		p.run.Go(s.probe)
	}
}

// interrupted fails s and reports true when its pilot has stopped or its
// bootstrap has spent more than StartTimeout; when says where it is.
func (s *Service) interrupted(spent time.Duration, when string) bool {
	var err error
	select {
	case <-s.p.stopped:
		err = fmt.Errorf("%w: %s %s", ErrPilotStopped, s.UID(), when)
	default:
		if spent > s.desc.StartTimeout {
			err = fmt.Errorf("service %s: start timeout %s", s.UID(), when)
		}
	}
	if err != nil {
		s.fail(err)
	}
	return err != nil
}

// fail ends s in FAILED with err and gives back the cores it holds.
func (s *Service) fail(err error) {
	s.mu.Lock()
	s.failErr = err
	alloc := s.alloc
	s.alloc = nil
	s.mu.Unlock()
	_ = s.machine.Fail()
	if alloc != nil {
		s.p.sched.Release(alloc)
	}
}

// probe is an ACTIVE service's liveness probe. The backend stops answering
// only when the service is killed, so the probe parks until then and sleeps
// through the two probe intervals whose misses mark the service FAILED and
// withdraw its endpoint. A Terminate ends it. On a virtual clock it parks and
// sleeps on the clock's books: the kill is detected at the same instant on
// every run.
func (s *Service) probe() {
	clock := s.p.cfg.Clock
	s.mu.Lock()
	err := s.down.Wait(s.probeCtx, clock, &s.mu)
	s.mu.Unlock()
	if err != nil || simtime.SleepCtx(s.probeCtx, clock, 2*s.desc.ProbeInterval) != nil {
		return
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return // a Terminate owns the stop
	}
	s.stopping = true
	s.failErr = errors.New("service: liveness probe failed")
	s.mu.Unlock()
	_ = s.machine.Fail()
	s.teardown()
}

// teardown closes transports and releases resources.
func (s *Service) teardown() {
	s.mu.Lock()
	api, alloc := s.apiSrv, s.alloc
	s.apiSrv, s.alloc = nil, nil
	s.mu.Unlock()
	if api != nil {
		_ = api.Close()
	}
	if alloc != nil {
		s.p.sched.Release(alloc)
	}
}

// WaitServices blocks until every listed service (all services when none
// listed) is ACTIVE, or one of them fails. On a virtual clock the caller must
// be registered: it parks until the last of them turns ACTIVE.
func (p *Pilot) WaitServices(ctx context.Context, uids ...string) error {
	if len(uids) == 0 {
		for _, s := range p.Services() {
			uids = append(uids, s.UID())
		}
	}
	for _, uid := range uids {
		s, ok := p.Service(uid)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownService, uid)
		}
		s.mu.Lock()
		err := s.ready.Wait(ctx, p.cfg.Clock, &s.mu)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if st := s.machine.Current(); st != states.ServiceActive {
			if err := s.Err(); err != nil {
				return err
			}
			return fmt.Errorf("service %s reached %s before ACTIVE", uid, st)
		}
	}
	return nil
}

// TerminateService stops a service. With drain=true, queued requests finish
// first (ACTIVE → DRAINING → DONE); otherwise the queue is flushed with
// errors.
func (p *Pilot) TerminateService(uid string, drain bool) error {
	s, ok := p.Service(uid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownService, uid)
	}
	return s.terminate(drain)
}

func (s *Service) terminate(drain bool) error {
	if st := s.machine.Current(); st != states.ServiceActive {
		return fmt.Errorf("%w: %s in %s", ErrNotActive, s.UID(), st)
	}
	// The service stays ACTIVE until its teardown is done, so the state
	// check alone admits every concurrent Terminate, Shutdown and failing
	// probe: the stopping flag picks the one that owns the teardown.
	s.mu.Lock()
	lost := s.stopping
	s.stopping = true
	srv := s.server
	s.mu.Unlock()
	if lost {
		return fmt.Errorf("%w: %s is already being terminated", ErrNotActive, s.UID())
	}
	s.stopProbe()
	if drain {
		if err := s.machine.To(states.ServiceDraining); err != nil {
			return err
		}
		if srv != nil {
			srv.Drain()
		}
	} else if srv != nil {
		srv.Stop()
	}
	s.teardown()
	return s.machine.To(states.ServiceDone)
}

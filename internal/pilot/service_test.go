package pilot

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

func llamaDesc(name string) spec.ServiceDescription {
	return spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: name, GPUs: 1},
		Model:           "llama-8b",
	}
}

func noopDesc(name string) spec.ServiceDescription {
	return spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: name, Cores: 1},
		Model:           "noop",
	}
}

// failed reports whether s ended FAILED: final, with a cause.
func failed(s *Service) bool { return s.Final() && s.Err() != nil }

// pilotOn launches a pilot of desc on Delta on the given clock with no boot
// time and the test goroutine not registered; its cleanup shuts it down.
func pilotOn(t *testing.T, clock *simtime.Virtual, desc spec.PilotDescription) *Pilot {
	t.Helper()
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	t.Cleanup(func() { _ = net.Close() })
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"),
		BootTime: rng.ConstDuration(0)}, desc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Shutdown() })
	return p
}

// waitServices waits for uids with a bound. The caller must be registered
// with p's clock, as newPilot's test goroutine is: WaitServices parks it on
// the clock's books.
func waitServices(t *testing.T, p *Pilot, uids ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.WaitServices(ctx, uids...); err != nil {
		t.Fatal(err)
	}
}

// waitServicesOn is waitServices for a test goroutine a pilotOn pilot left
// unregistered: it registers around the wait.
func waitServicesOn(t *testing.T, p *Pilot, uids ...string) {
	t.Helper()
	run := simtime.RunnersOf(p.Clock())
	run.AddRunner()
	defer run.DoneRunner()
	waitServices(t, p, uids...)
}

// freeOnNodes sums the free cores and GPUs of p's nodes.
func freeOnNodes(p *Pilot) (cores, gpus int) {
	for _, n := range p.Nodes() {
		cores += n.FreeCores()
		gpus += n.FreeGPUs()
	}
	return cores, gpus
}

func TestSubmitRejectsInvalidDescription(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	if _, err := p.SubmitService(spec.ServiceDescription{}); err == nil {
		t.Fatal("SubmitService accepted empty description")
	}
	if _, err := p.SubmitService(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "x", GPUs: 1},
		Model:           "unknown-model",
	}); err != nil {
		t.Fatal("model existence must be checked at bootstrap, not submit:", err)
	}
}

func TestServiceBootstrapLifecycle(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, err := p.SubmitService(llamaDesc("svc"))
	if err != nil {
		t.Fatal(err)
	}
	waitServices(t, p, s.UID())
	if s.State() != states.ServiceActive {
		t.Fatalf("state = %s", s.State())
	}
	ep := s.Endpoint()
	if ep.Model != "llama-8b" || ep.Address == "" || ep.Node == "" {
		t.Fatalf("endpoint = %+v", ep)
	}
	if ep.PublishedAt.IsZero() {
		t.Fatal("endpoint not stamped with its publication time")
	}
}

func TestBootstrapBreakdownShape(t *testing.T) {
	// Fig. 3: init (model load, tens of seconds) dominates launch (~2s),
	// and publish stays below launch.
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(llamaDesc("svc"))
	waitServices(t, p, s.UID())
	bt := s.Bootstrap()
	if names := [3]string{bt[0].Name, bt[1].Name, bt[2].Name}; names != [3]string{"launch", "init", "publish"} {
		t.Fatalf("bootstrap parts %v, want launch, init, publish", names)
	}
	launch := bt.Get("launch")
	init := bt.Get("init")
	publish := bt.Get("publish")
	if bt.Total() != launch+init+publish {
		t.Fatalf("Total %v, parts sum to %v", bt.Total(), launch+init+publish)
	}
	if init <= launch {
		t.Fatalf("init (%v) must dominate launch (%v)", init, launch)
	}
	if publish >= launch {
		t.Fatalf("publish (%v) must stay below launch (%v)", publish, launch)
	}
	if init < 10*time.Second {
		t.Fatalf("init = %v, implausible for llama-8b", init)
	}
}

// TestBootstrapStateTimestampsConsistent: the init span between the state
// transitions is the measured server load time, exactly on the virtual
// clock.
func TestBootstrapStateTimestampsConsistent(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(llamaDesc("svc"))
	waitServices(t, p, s.UID())
	d, ok := s.machine.Between(states.ServiceInitializing, states.ServicePublishing)
	if !ok {
		t.Fatal("missing state history")
	}
	if init := s.Bootstrap().Get("init"); d != init || init <= 0 {
		t.Fatalf("state-derived init %v vs measured %v", d, init)
	}
}

func TestUIDAssignmentUnique(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	a, _ := p.SubmitService(noopDesc("a"))
	b, _ := p.SubmitService(noopDesc("b"))
	if a.UID() == b.UID() || a.UID() == "" {
		t.Fatalf("UIDs = %q/%q", a.UID(), b.UID())
	}
}

// TestShutdownDuringBootstrapFailsService: a Shutdown that overtakes a
// service's bootstrap, wherever it finds it, fails the service with
// ErrPilotStopped. No service turns ACTIVE, and no liveness probe or serving
// worker outlives the pilot.
func TestShutdownDuringBootstrapFailsService(t *testing.T) {
	v := simtime.NewVirtualAuto(origin)
	p := pilotOn(t, v, deltaPilot())
	v.AddRunner() // the clock holds still: Shutdown runs before the launch
	s, _ := p.SubmitService(noopDesc("late"))
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	err := p.WaitServices(context.Background(), s.UID()) // parks until final
	v.Settle()
	v.DoneRunner()
	if !failed(s) || !errors.Is(err, ErrPilotStopped) {
		t.Fatalf("service submitted before Shutdown is %s (%v) after its bootstrap, want FAILED with ErrPilotStopped",
			s.State(), err)
	}
	if _, ok := s.machine.EnteredAt(states.ServiceActive); ok {
		t.Fatal("a service overtaken by Shutdown turned ACTIVE")
	}
}

// TestShutdownDuringPublishTerminatesService: a service whose bootstrap is
// past its last look at the stop signal when the pilot shuts down turns
// ACTIVE after Shutdown's look at the ACTIVE services, and terminates itself.
// The publish hook runs in that gap, so the Shutdown it calls lands there on
// every run.
func TestShutdownDuringPublishTerminatesService(t *testing.T) {
	var p *Pilot
	var shutdownErr error
	p, _ = newHookedPilot(t, deltaPilot(), Hooks{
		OnServicePublish: func(*Service) { shutdownErr = p.Shutdown() },
	})
	s, err := p.SubmitService(noopDesc("svc"))
	if err != nil {
		t.Fatal(err)
	}
	_ = p.WaitServices(context.Background(), s.UID())
	simtime.RunnersOf(p.Clock()).Settle() // the self-termination is done
	if shutdownErr != nil {
		t.Fatal(shutdownErr)
	}
	if _, ok := s.machine.EnteredAt(states.ServiceActive); !ok || s.State() != states.ServiceDone || s.Err() != nil {
		t.Fatalf("service in %s (%v), want DONE after ACTIVE", s.State(), s.Err())
	}
	if p.State() != states.PilotDone {
		t.Fatalf("pilot in %s, want DONE", p.State())
	}
}

func TestPriorityDefaulted(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(noopDesc("a"))
	if s.desc.Priority != spec.ServicePriority {
		t.Fatalf("priority = %d, want %d", s.desc.Priority, spec.ServicePriority)
	}
}

func TestInferenceRoundTripThroughEndpoint(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(llamaDesc("svc"))
	waitServices(t, p, s.UID())
	c, err := service.Dial(p.Network(), p.Clock(), platform.Addr("delta", "", "client.0001"), s.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, rt, err := c.Infer(context.Background(), "what pathways respond to low-dose radiation", 128)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Model != "llama-8b" || reply.OutputTokens < 1 {
		t.Fatalf("reply = %+v", reply)
	}
	if rt.Get("inference") <= 0 {
		t.Fatal("no inference component measured")
	}
	// Fig. 6: inference dominates for a real model
	if rt.Get("inference") < rt.Get("communication") {
		t.Fatalf("inference %v below communication %v", rt.Get("inference"), rt.Get("communication"))
	}
}

func TestNoopRTCommunicationDominates(t *testing.T) {
	// Exp 2 (Fig. 4): for NOOP inference, communication dominates the
	// response time.
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(noopDesc("svc"))
	waitServices(t, p, s.UID())
	c, err := service.Dial(p.Network(), p.Clock(), platform.Addr("delta", "delta-node0003", "client.0001"), s.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agg := metrics.NewCollector()
	for i := 0; i < 20; i++ {
		_, rt, err := c.Infer(context.Background(), "noop", 0)
		if err != nil {
			t.Fatal(err)
		}
		agg.AddAll("rt", rt)
	}
	comm := agg.Stats("rt.communication").Mean
	infer := agg.Stats("rt.inference").Mean
	if comm <= infer {
		t.Fatalf("communication (%v) must dominate noop inference (%v)", comm, infer)
	}
}

func TestTerminateDrain(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(noopDesc("svc"))
	waitServices(t, p, s.UID())
	if err := p.TerminateService(s.UID(), true); err != nil {
		t.Fatal(err)
	}
	if s.State() != states.ServiceDone {
		t.Fatalf("state after drain = %s", s.State())
	}
	if err := p.TerminateService(s.UID(), true); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double terminate = %v", err)
	}
}

// TestTerminateSingleWinnerRace races several Terminates of one ACTIVE service,
// first among themselves and then against Shutdown: the service is ACTIVE
// until its teardown ends, so all of them pass the state check, and exactly
// one may own the stop (the others used to close probeStop a second time).
// It runs on the virtual clock, where no start timeout lapses under host load.
func TestTerminateSingleWinnerRace(t *testing.T) {
	for _, withShutdown := range []bool{false, true} {
		p := pilotOn(t, simtime.NewVirtualAuto(origin), deltaPilot())
		s, _ := p.SubmitService(noopDesc("svc"))
		waitServicesOn(t, p, s.UID())
		const terminators = 4
		errs := make([]error, terminators)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				errs[i] = p.TerminateService(s.UID(), false)
			}(i)
		}
		if withShutdown {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_ = p.Shutdown()
			}()
		}
		close(start)
		wg.Wait()
		won := 0
		for _, err := range errs {
			if err == nil {
				won++
			} else if !errors.Is(err, ErrNotActive) {
				t.Errorf("withShutdown=%v: losing Terminate = %v, want ErrNotActive", withShutdown, err)
			}
		}
		// Shutdown drops its own Terminate's error, so when it wins no
		// Terminate here reports nil.
		if won > 1 || (won == 0 && !withShutdown) {
			t.Errorf("withShutdown=%v: %d Terminates returned nil, want exactly one winner", withShutdown, won)
		}
		if s.State() != states.ServiceDone {
			t.Errorf("withShutdown=%v: state = %s, want DONE", withShutdown, s.State())
		}
	}
}

// TestKilledServiceFailsTwoProbesLater: on the virtual clock a killed service
// is FAILED exactly two probe intervals after the kill, and a Terminate
// before then wins: the service is DONE and its probe ends without failing it.
func TestKilledServiceFailsTwoProbesLater(t *testing.T) {
	for _, terminate := range []bool{false, true} {
		v := simtime.NewVirtualAuto(origin)
		p := pilotOn(t, v, deltaPilot())
		d := noopDesc("victim")
		d.ProbeInterval = 2 * time.Second
		s, _ := p.SubmitService(d)
		waitServicesOn(t, p, s.UID())
		v.AddRunner()
		var finalAt time.Time
		s.OnTransition(func(_ string, _ states.State, steps []states.Record) {
			if st := steps[0]; states.ServiceModel().IsFinal(st.State) {
				finalAt = st.At
			}
		})
		killedAt := v.Now()
		s.Kill()
		if terminate {
			v.Sleep(d.ProbeInterval)
			if err := p.TerminateService(s.UID(), false); err != nil {
				t.Fatalf("Terminate one probe interval after the kill: %v", err)
			}
		}
		v.Sleep(3 * d.ProbeInterval)
		v.DoneRunner()
		switch {
		case terminate && s.State() != states.ServiceDone:
			t.Errorf("terminated killed service in %s, want DONE", s.State())
		case !terminate && (!failed(s) || !finalAt.Equal(killedAt.Add(2*d.ProbeInterval))):
			t.Errorf("killed service in %s at %v, want FAILED at %v", s.State(), finalAt, killedAt.Add(2*d.ProbeInterval))
		}
	}
}

// TestKilledProbeVsTerminateSingleWinnerRace: a Terminate racing the probe that
// fails a killed service has one winner. Either the Terminate returns nil and
// the service is DONE, or it returns ErrNotActive and the probe's FAILED
// stands; both ways the service's cores come back once, through the
// scheduler. The probe detects the kill two probe intervals after it; a
// Terminate before that instant wins, one after it loses, and one at it may
// do either. It runs on the virtual clock, where no host stall moves time.
func TestKilledProbeVsTerminateSingleWinnerRace(t *testing.T) {
	const probe = 2 * time.Second
	detect := 2 * probe
	for _, after := range []time.Duration{0, probe, detect - time.Nanosecond, detect, detect + time.Nanosecond, detect + probe} {
		clock := simtime.NewVirtualAuto(origin)
		p := pilotOn(t, clock, spec.PilotDescription{Platform: "delta", Nodes: 1})
		d := noopDesc("victim")
		d.ProbeInterval = probe
		s, _ := p.SubmitService(d)
		waitServicesOn(t, p, s.UID())
		var err error
		done := make(chan struct{})
		clock.Go(func() {
			defer close(done)
			s.Kill()
			clock.Sleep(after)
			err = p.TerminateService(s.UID(), false)
			clock.Settle() // the probe's teardown, when it won, is done
		})
		<-done
		switch {
		case err != nil && !errors.Is(err, ErrNotActive):
			t.Fatalf("Terminate %v after the kill = %v, want nil or ErrNotActive", after, err)
		case err != nil && after < detect, err == nil && after > detect:
			t.Fatalf("Terminate %v after the kill = %v, detection at %v", after, err, detect)
		case err == nil && s.State() != states.ServiceDone, err != nil && !failed(s):
			t.Fatalf("Terminate %v after the kill = %v, service %s", after, err, s.State())
		}
		if free := p.Snapshot().MaxFreeCores; free != 64 {
			t.Fatalf("Terminate %v after the kill: %d cores free on the node, want 64", after, free)
		}
	}
}

func TestTerminateReleasesResources(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	_, free := freeOnNodes(p)
	s, _ := p.SubmitService(llamaDesc("svc"))
	waitServices(t, p, s.UID())
	if _, gpus := freeOnNodes(p); gpus != free-1 {
		t.Fatalf("GPU not allocated: %d", gpus)
	}
	_ = p.TerminateService(s.UID(), false)
	if _, gpus := freeOnNodes(p); gpus != free {
		t.Fatalf("GPU leaked after terminate: %d", gpus)
	}
}

func TestTerminateUnknown(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	if err := p.TerminateService("service.9999", false); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

func TestBootstrapFailsOnUnknownModel(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, err := p.SubmitService(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "bad", Cores: 1},
		Model:           "gpt-99",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.WaitServices(ctx, s.UID()); err == nil {
		t.Fatal("WaitServices succeeded for unknown model")
	}
	if !failed(s) {
		t.Fatalf("state = %s, want FAILED", s.State())
	}
}

func TestBootstrapFailureReleasesResources(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	free, _ := freeOnNodes(p)
	s, _ := p.SubmitService(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "bad", Cores: 2},
		Model:           "gpt-99",
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.WaitServices(ctx, s.UID())
	simtime.RunnersOf(p.Clock()).Settle() // the failing bootstrap is done
	// allocation must be returned
	if cores, _ := freeOnNodes(p); cores != free {
		t.Fatalf("cores leaked after failed bootstrap: %d != %d", cores, free)
	}
}

func TestUnsatisfiableServiceFails(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	s, _ := p.SubmitService(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "huge", GPUs: 100},
		Model:           "noop",
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.WaitServices(ctx, s.UID()); err == nil {
		t.Fatal("unsatisfiable service became ready")
	}
}

func TestLivenessProbeDetectsKill(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	d := noopDesc("victim")
	d.ProbeInterval = 2 * time.Second
	s, _ := p.SubmitService(d)
	waitServices(t, p, s.UID())
	s.Kill()
	p.Clock().Sleep(3 * d.ProbeInterval) // the probe fails it after two
	if !failed(s) {
		t.Fatalf("state = %s, want FAILED after kill", s.State())
	}
}

func TestConcurrentServiceHandlesParallelRequests(t *testing.T) {
	// the paper's future-work configuration: a service with Concurrency=4
	// must show near-zero queue time for 4 simultaneous clients, where the
	// single-threaded default serializes them
	p, _ := newPilot(t, deltaPilot())
	single := llamaDesc("single")
	multi := llamaDesc("multi")
	multi.Concurrency = 4
	a, _ := p.SubmitService(single)
	b, _ := p.SubmitService(multi)
	waitServices(t, p, a.UID(), b.UID())

	run := func(s *Service) time.Duration {
		ep := s.Endpoint()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var maxQ time.Duration
		for i := 0; i < 4; i++ {
			wg.Add(1)
			simtime.RunnersOf(p.Clock()).Go(func() {
				defer wg.Done()
				cl, err := service.Dial(p.Network(), p.Clock(), "delta//cc-client", ep)
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				reply, _, err := cl.Infer(context.Background(), "p", 256)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if q := reply.Timing.QueueTime(); q > maxQ {
					maxQ = q
				}
				mu.Unlock()
			})
		}
		offClock(p, wg.Wait)
		return maxQ
	}
	qSingle := run(a)
	qMulti := run(b)
	if qMulti != 0 || qSingle == 0 {
		t.Fatalf("concurrency=4 queued %v, single-threaded %v — no improvement", qMulti, qSingle)
	}
}

func TestServiceQueueCapThroughPilot(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	d := llamaDesc("tiny-queue")
	d.QueueCap = 1
	s, _ := p.SubmitService(d)
	waitServices(t, p, s.UID())
	ep := s.Endpoint()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		simtime.RunnersOf(p.Clock()).Go(func() {
			defer wg.Done()
			cl, err := service.Dial(p.Network(), p.Clock(), "delta//qc-client", ep)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			_, _, err = cl.Infer(context.Background(), "p", 1024)
			errs <- err
		})
	}
	offClock(p, wg.Wait)
	close(errs)
	rejected := 0
	for err := range errs {
		if err != nil {
			rejected++
		}
	}
	// One served, one queued: the other six arrive within link latency of
	// the first, long before its inference ends, and find the queue full.
	if rejected != 6 {
		t.Fatalf("%d of 8 requests rejected with QueueCap=1, want 6", rejected)
	}
}

func TestWaitServicesUnknownUID(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	err := p.WaitServices(context.Background(), "service.404")
	if !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

// TestConcurrentServiceBootstrap is Exp 1 in miniature: 8 llama services on
// Delta (16 GPUs) bootstrap side by side on the virtual clock, so each is
// ACTIVE exactly its own launch, init and publish after submission.
func TestConcurrentServiceBootstrap(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	p := pilotOn(t, clock, deltaPilot())
	const n = 8
	uids := make([]string, n)
	clock.AddRunner() // the submitter holds the clock until all are in
	for i := 0; i < n; i++ {
		s, err := p.SubmitService(llamaDesc("svc"))
		if err != nil {
			t.Fatal(err)
		}
		uids[i] = s.UID()
	}
	clock.DoneRunner()
	waitServicesOn(t, p, uids...)
	for _, uid := range uids {
		s, _ := p.Service(uid)
		active, ok := s.machine.EnteredAt(states.ServiceActive)
		if want := origin.Add(s.Bootstrap().Total()); !ok || !active.Equal(want) {
			t.Fatalf("%s ACTIVE at %v (%v), want %v", uid, active, s.State(), want)
		}
	}
	if got := len(p.Services()); got != n {
		t.Fatalf("pilot holds %d services, want %d", got, n)
	}
}

// TestServicesStartBeforeTasks: a service submitted after a burst of compute
// tasks onto a pilot whose 16 GPUs are all held takes the first GPU that
// comes back, ahead of the tasks queued before it: its raised priority.
func TestServicesStartBeforeTasks(t *testing.T) {
	p, _ := newPilot(t, deltaPilot())
	ctx := context.Background()
	gpuTask := func(d time.Duration) *Task {
		t.Helper()
		task, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "gpu", GPUs: 1, Duration: rng.ConstDuration(d)})
		if err != nil {
			t.Fatal(err)
		}
		return task
	}
	first := gpuTask(time.Minute)
	for i := 1; i < 16; i++ {
		gpuTask(time.Hour)
	}
	queued := make([]*Task, 8)
	for i := range queued {
		queued[i] = gpuTask(time.Second)
	}
	simtime.RunnersOf(p.Clock()).Settle() // the holders are granted, the rest wait in the pool
	d := noopDesc("svc")
	d.Cores, d.GPUs = 0, 1
	s, err := p.SubmitService(d)
	if err != nil {
		t.Fatal(err)
	}
	waitServices(t, p, s.UID())
	freed, _ := first.machine.EnteredAt(states.TaskDone)
	granted, _ := s.machine.EnteredAt(states.ServiceLaunching)
	if !granted.Equal(freed) {
		t.Fatalf("service granted at %v, want %v, when the first GPU came back", granted, freed)
	}
	for _, task := range queued {
		if st := task.State(); st != states.TaskScheduling {
			t.Fatalf("task %s queued before the service is %s once the service is ACTIVE, want %s",
				task.UID(), st, states.TaskScheduling)
		}
	}
}

// TestShutdownFailsQueuedBeforeFreeingCoresRace: a noop service holds every
// core of a one-node pilot and a task waits for them. Shutdown fails the
// queued task before it terminates the service, so the cores the service
// gives back find nothing queued: the task never executes on the stopping
// pilot. The recorded transitions show the task's FAILED before the service's
// DONE on every run, whatever the host's scheduler does.
func TestShutdownFailsQueuedBeforeFreeingCoresRace(t *testing.T) {
	type step struct {
		uid string
		st  states.State
	}
	var mu sync.Mutex
	var seen []step
	p, _ := newHookedPilot(t, spec.PilotDescription{Platform: "delta", Nodes: 1}, Hooks{
		Transition: func(_ states.Entity, uid string, _ states.State, steps []states.Record) {
			mu.Lock()
			for _, r := range steps {
				seen = append(seen, step{uid, r.State})
			}
			mu.Unlock()
		},
	})
	d := noopDesc("svc")
	d.Cores = 64
	s, err := p.SubmitService(d)
	if err != nil {
		t.Fatal(err)
	}
	waitServices(t, p, s.UID())
	task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "queued", Cores: 64,
		Duration: rng.ConstDuration(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := waitTasks(t, p, task.UID()); !errors.Is(err, ErrPilotStopped) {
		t.Fatalf("queued task = %v, want ErrPilotStopped", err)
	}
	mu.Lock()
	defer mu.Unlock()
	at := func(uid string, st states.State) int {
		for i, s := range seen {
			if s.uid == uid && s.st == st {
				return i
			}
		}
		return -1
	}
	if at(task.UID(), states.TaskExecuting) >= 0 {
		t.Fatal("the queued task executed on a stopping pilot")
	}
	failedAt, doneAt := at(task.UID(), states.TaskFailed), at(s.UID(), states.ServiceDone)
	if failedAt < 0 || doneAt < 0 || failedAt > doneAt {
		t.Fatalf("task FAILED at step %d, service DONE at step %d: want the task's failure first", failedAt, doneAt)
	}
}

// TestStoppedPilotRefusalsTyped: each way a stopped pilot refuses work has
// its sentinel. Work submitted after Shutdown is refused with ErrNotActive;
// work still queued at Shutdown fails with ErrPilotStopped, a service as a
// task does.
func TestStoppedPilotRefusalsTyped(t *testing.T) {
	ctx := context.Background()
	svc := noopDesc("svc")
	svc.Cores = 64
	submitService := func(p *Pilot) (func() error, error) {
		s, err := p.SubmitService(svc)
		return func() error { return p.WaitServices(ctx, s.UID()) }, err
	}
	submitTask := func(p *Pilot) (func() error, error) {
		task, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "task", Cores: 64, Duration: rng.ConstDuration(time.Second)})
		return func() error { return p.WaitTasks(ctx, task.UID()) }, err
	}
	for _, c := range []struct {
		name   string
		submit func(*Pilot) (func() error, error)
		queued bool // submitted before Shutdown, behind a task holding the node
		want   error
	}{
		{"service after shutdown", submitService, false, ErrNotActive},
		{"task after shutdown", submitTask, false, ErrNotActive},
		{"service queued at shutdown", submitService, true, ErrPilotStopped},
		{"task queued at shutdown", submitTask, true, ErrPilotStopped},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, _ := newPilot(t, spec.PilotDescription{Platform: "delta", Nodes: 1})
			var wait func() error
			if c.queued {
				if _, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "holder", Cores: 64,
					Duration: rng.ConstDuration(time.Hour)}); err != nil {
					t.Fatal(err)
				}
				var err error
				if wait, err = c.submit(p); err != nil {
					t.Fatal(err)
				}
				simtime.RunnersOf(p.Clock()).Settle() // queued in the wait pool
			}
			if err := p.Shutdown(); err != nil {
				t.Fatal(err)
			}
			var err error
			if c.queued {
				err = wait()
			} else {
				_, err = c.submit(p)
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/stager"
	"repro/internal/states"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// rig is a single-pilot agent environment on one clock.
type rig struct {
	clock simtime.Clock
	src   *rng.Source
	net   *msgq.Network
	sched *scheduler.Scheduler
	rtr   *scheduler.Router
	exec  *executor.Executor
	mgr   *Manager
	plat  *platform.Platform
}

// newRig assembles a rig on a scaled clock.
func newRig(t *testing.T, scale float64) *rig {
	t.Helper()
	return newRigOn(t, simtime.NewScaled(scale, origin))
}

// newRigOn is newRig on the given clock.
func newRigOn(t *testing.T, clock simtime.Clock) *rig {
	t.Helper()
	src := rng.New(7)
	plat := platform.DefaultTopology().Platform("delta")
	topo := platform.NewTopology(plat)
	net := msgq.NewNetwork(clock, src.Derive("net"), topo.Resolver())
	rtr := scheduler.NewRouter()
	sched := scheduler.New(plat.Nodes(), func(p scheduler.Placement) { rtr.Route(p) }, scheduler.WithClock(clock))
	exec := executor.New(clock, src.Derive("exec"), plat.Launch)
	mgr, err := NewManager(Config{
		Clock: clock, Src: src.Derive("mgr"), Net: net,
		Sched: sched, Router: rtr, Exec: exec,
		Stage: stager.NewManager(clock, src.Derive("stage")), PublishSrc: src.Derive("reg"),
		Platform: plat.Name(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mgr.Close()
		sched.Close()
		net.Close()
	})
	return &rig{clock: clock, src: src, net: net, sched: sched, rtr: rtr,
		exec: exec, mgr: mgr, plat: plat}
}

// endpoint returns the published endpoint of a managed service.
func (r *rig) endpoint(uid string) proto.Endpoint {
	inst, _ := r.mgr.Get(uid)
	return inst.Endpoint()
}

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

// failed reports whether inst ended FAILED: final, with a cause.
func failed(inst *Instance) bool { return inst.Final() && inst.Err() != nil }

// waitReady waits for uids on the test goroutine, registered with a virtual
// clock for the wait: WaitReady parks its caller on the clock's books.
func waitReady(t *testing.T, r *rig, uids ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v := simtime.RunnersOf(r.clock); v != nil {
		v.AddRunner()
		defer v.DoneRunner()
	}
	if err := r.mgr.WaitReady(ctx, uids...); err != nil {
		t.Fatal(err)
	}
}

func TestManagerConfigValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("NewManager accepted empty config")
	}
}

func TestSubmitRejectsInvalidDescription(t *testing.T) {
	r := newRig(t, 100000)
	if _, err := r.mgr.Submit(spec.ServiceDescription{}); err == nil {
		t.Fatal("Submit accepted empty description")
	}
	if _, err := r.mgr.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "x", GPUs: 1},
		Model:           "unknown-model",
	}); err != nil {
		t.Fatal("model existence must be checked at bootstrap, not submit:", err)
	}
}

func TestServiceBootstrapLifecycle(t *testing.T) {
	r := newRig(t, 100000)
	inst, err := r.mgr.Submit(llamaDesc("svc"))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, inst.UID())
	if inst.State() != states.ServiceActive {
		t.Fatalf("state = %s", inst.State())
	}
	ep := inst.Endpoint()
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
	r := newRig(t, 100000)
	inst, _ := r.mgr.Submit(llamaDesc("svc"))
	waitReady(t, r, inst.UID())
	bt := inst.Bootstrap()
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

func TestBootstrapStateTimestampsConsistent(t *testing.T) {
	// low scale: real scheduling skew between state transitions (which can
	// reach tens of ms under full-suite CPU contention) must stay well
	// below the tolerance once amplified by the clock factor
	r := newRig(t, 200)
	inst, _ := r.mgr.Submit(llamaDesc("svc"))
	waitReady(t, r, inst.UID())
	m := inst.machine
	d, ok := m.Between(states.ServiceInitializing, states.ServicePublishing)
	if !ok {
		t.Fatal("missing state history")
	}
	// state-derived init duration must match the measured server load time
	// within clock skew
	bt := inst.Bootstrap()
	diff := d - bt.Get("init")
	if diff < 0 {
		diff = -diff
	}
	if diff > 5*time.Second {
		t.Fatalf("state-derived init %v vs measured %v", d, bt.Get("init"))
	}
}

// TestDecomposeRT pins the RT split's parts, their order and names, and
// that building it allocates nothing.
func TestDecomposeRT(t *testing.T) {
	at := time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)
	tm := proto.Timing{
		ReceivedAt:   at,
		DequeuedAt:   at.Add(5 * time.Microsecond),
		InferStartAt: at.Add(20 * time.Microsecond),
		InferEndAt:   at.Add(120 * time.Microsecond),
		RepliedAt:    at.Add(140 * time.Microsecond),
	}
	rt := DecomposeRT(300*time.Microsecond, tm)
	want := metrics.Breakdown{
		{"communication", 160 * time.Microsecond}, {"service", 40 * time.Microsecond}, {"inference", 100 * time.Microsecond},
	}
	if rt != want {
		t.Fatalf("DecomposeRT = %v, want %v", rt, want)
	}
	if rt.Total() != 300*time.Microsecond {
		t.Fatalf("Total = %v, want the measured 300µs", rt.Total())
	}
	var sink metrics.Breakdown
	if allocs := testing.AllocsPerRun(100, func() { sink = DecomposeRT(300*time.Microsecond, tm) }); allocs != 0 {
		t.Fatalf("DecomposeRT allocates %.1f objects, want 0", allocs)
	}
	_ = sink
}

// TestRequestUID holds requestUID to the fmt.Sprintf format it replaces and
// to its one allocation.
func TestRequestUID(t *testing.T) {
	c := &Client{uidPrefix: "delta.client.0001.req."}
	for _, id := range []uint64{0, 1, 9, 10, 99999, 100000, 999999, 1000000, 1 << 40, math.MaxUint64} {
		if got, want := c.requestUID(id), fmt.Sprintf("delta.client.0001.req.%06d", id); got != want {
			t.Errorf("requestUID(%d) = %q, want %q", id, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.requestUID(4242) }); allocs != 1 {
		t.Errorf("requestUID allocates %.1f objects, want 1", allocs)
	}
}

func TestUIDAssignmentUnique(t *testing.T) {
	r := newRig(t, 100000)
	a, _ := r.mgr.Submit(noopDesc("a"))
	b, _ := r.mgr.Submit(noopDesc("b"))
	if a.UID() == b.UID() || a.UID() == "" {
		t.Fatalf("UIDs = %q/%q", a.UID(), b.UID())
	}
}

// TestCloseDuringBootstrapTerminatesService: Close skips a service still
// bootstrapping, and the bootstrap, reaching ACTIVE on a closed manager,
// terminates the service itself. No instance stays ACTIVE, and no liveness
// probe or serving worker outlives the manager.
func TestCloseDuringBootstrapTerminatesService(t *testing.T) {
	v := simtime.NewVirtualAuto(origin)
	r := newRigOn(t, v)
	v.AddRunner() // the clock holds still: Close runs before the launch
	inst, _ := r.mgr.Submit(noopDesc("late"))
	r.mgr.Close()
	_ = r.mgr.WaitReady(context.Background(), inst.UID()) // parks until ACTIVE
	v.Settle()
	v.DoneRunner()
	if st := inst.State(); st != states.ServiceDone {
		t.Fatalf("service submitted before Close is %s after its bootstrap, want %s", st, states.ServiceDone)
	}
}

func TestPriorityDefaulted(t *testing.T) {
	r := newRig(t, 100000)
	inst, _ := r.mgr.Submit(noopDesc("a"))
	if inst.desc.Priority != spec.ServicePriority {
		t.Fatalf("priority = %d, want %d", inst.desc.Priority, spec.ServicePriority)
	}
}

func TestInferenceRoundTripThroughEndpoint(t *testing.T) {
	r := newRig(t, 1000)
	inst, _ := r.mgr.Submit(llamaDesc("svc"))
	waitReady(t, r, inst.UID())
	c, err := Dial(r.net, r.clock, platform.Addr("delta", "", "client.0001"), inst.Endpoint())
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
	// response time. Run near real time so sub-millisecond latencies are
	// resolvable.
	r := newRig(t, 10)
	inst, _ := r.mgr.Submit(noopDesc("svc"))
	waitReady(t, r, inst.UID())
	c, err := Dial(r.net, r.clock, platform.Addr("delta", "delta-node0003", "client.0001"), inst.Endpoint())
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
	r := newRig(t, 100000)
	inst, _ := r.mgr.Submit(noopDesc("svc"))
	waitReady(t, r, inst.UID())
	if err := r.mgr.Terminate(inst.UID(), true); err != nil {
		t.Fatal(err)
	}
	if inst.State() != states.ServiceDone {
		t.Fatalf("state after drain = %s", inst.State())
	}
	if err := r.mgr.Terminate(inst.UID(), true); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double terminate = %v", err)
	}
}

// TestTerminateSingleWinnerRace races several Terminates of one ACTIVE service,
// first among themselves and then against Close: the service is ACTIVE
// until its teardown ends, so all of them pass the state check, and exactly
// one may own the stop (the others used to close probeStop a second time).
// It runs on the virtual clock, where no start timeout lapses under host load.
func TestTerminateSingleWinnerRace(t *testing.T) {
	for _, withClose := range []bool{false, true} {
		r := newRigOn(t, simtime.NewVirtualAuto(origin))
		inst, _ := r.mgr.Submit(noopDesc("svc"))
		waitReady(t, r, inst.UID())
		const terminators = 4
		errs := make([]error, terminators)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				errs[i] = r.mgr.Terminate(inst.UID(), false)
			}(i)
		}
		if withClose {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				r.mgr.Close()
			}()
		}
		close(start)
		wg.Wait()
		won := 0
		for _, err := range errs {
			if err == nil {
				won++
			} else if !errors.Is(err, ErrNotActive) {
				t.Errorf("withClose=%v: losing Terminate = %v, want ErrNotActive", withClose, err)
			}
		}
		// Close drops its own Terminate's error, so when it wins no
		// Terminate here reports nil.
		if won > 1 || (won == 0 && !withClose) {
			t.Errorf("withClose=%v: %d Terminates returned nil, want exactly one winner", withClose, won)
		}
		if inst.State() != states.ServiceDone {
			t.Errorf("withClose=%v: state = %s, want DONE", withClose, inst.State())
		}
	}
}

// TestKilledServiceFailsTwoProbesLater: on the virtual clock a killed service
// is FAILED exactly two probe intervals after the kill, and a Terminate
// before then wins: the service is DONE and its probe ends without failing it.
func TestKilledServiceFailsTwoProbesLater(t *testing.T) {
	for _, terminate := range []bool{false, true} {
		v := simtime.NewVirtualAuto(origin)
		r := newRigOn(t, v)
		d := noopDesc("victim")
		d.ProbeInterval = 2 * time.Second
		inst, _ := r.mgr.Submit(d)
		waitReady(t, r, inst.UID())
		v.AddRunner()
		var finalAt time.Time
		inst.OnTransition(func(_ string, _, to states.State, at time.Time) {
			if states.ServiceModel().IsFinal(to) {
				finalAt = at
			}
		})
		killedAt := v.Now()
		inst.Kill()
		if terminate {
			v.Sleep(d.ProbeInterval)
			if err := r.mgr.Terminate(inst.UID(), false); err != nil {
				t.Fatalf("Terminate one probe interval after the kill: %v", err)
			}
		}
		v.Sleep(3 * d.ProbeInterval)
		v.DoneRunner()
		switch {
		case terminate && inst.State() != states.ServiceDone:
			t.Errorf("terminated killed service in %s, want DONE", inst.State())
		case !terminate && (!failed(inst) || !finalAt.Equal(killedAt.Add(2*d.ProbeInterval))):
			t.Errorf("killed service in %s at %v, want FAILED at %v", inst.State(), finalAt, killedAt.Add(2*d.ProbeInterval))
		}
	}
}

// TestKilledProbeVsTerminateSingleWinnerRace: a Terminate racing the probe that
// fails a killed service has one winner. Either the Terminate returns nil and
// the service is DONE, or it returns ErrNotActive and the probe's FAILED
// stands; both ways the service's cores come back once, through the
// scheduler.
func TestKilledProbeVsTerminateSingleWinnerRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		r := newRig(t, 100000)
		d := noopDesc("victim")
		d.ProbeInterval = 2 * time.Second // 40 µs of wall clock to detection
		inst, _ := r.mgr.Submit(d)
		waitReady(t, r, inst.UID())
		inst.Kill()
		time.Sleep(time.Duration(i) * 4 * time.Microsecond) // either side of the detection
		err := r.mgr.Terminate(inst.UID(), false)
		if err != nil && !errors.Is(err, ErrNotActive) {
			t.Fatalf("run %d: Terminate = %v, want nil or ErrNotActive", i, err)
		}
		want, ended := "DONE", func() bool { return inst.State() == states.ServiceDone }
		if err != nil {
			want, ended = "FAILED", func() bool { return failed(inst) }
		}
		deadline := time.Now().Add(5 * time.Second)
		for (!ended() || r.sched.Snapshot().MaxFreeCores != 64) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !ended() || r.sched.Snapshot().MaxFreeCores != 64 {
			t.Fatalf("run %d: Terminate = %v, service %s with %d cores free on its node, want %s with 64",
				i, err, inst.State(), r.sched.Snapshot().MaxFreeCores, want)
		}
	}
}

func TestTerminateReleasesResources(t *testing.T) {
	r := newRig(t, 100000)
	free := r.plat.FreeGPUs()
	inst, _ := r.mgr.Submit(llamaDesc("svc"))
	waitReady(t, r, inst.UID())
	if r.plat.FreeGPUs() != free-1 {
		t.Fatalf("GPU not allocated: %d", r.plat.FreeGPUs())
	}
	_ = r.mgr.Terminate(inst.UID(), false)
	if r.plat.FreeGPUs() != free {
		t.Fatalf("GPU leaked after terminate: %d", r.plat.FreeGPUs())
	}
}

func TestTerminateUnknown(t *testing.T) {
	r := newRig(t, 100000)
	if err := r.mgr.Terminate("service.9999", false); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

func TestBootstrapFailsOnUnknownModel(t *testing.T) {
	r := newRig(t, 100000)
	inst, err := r.mgr.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "bad", Cores: 1},
		Model:           "gpt-99",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.mgr.WaitReady(ctx, inst.UID()); err == nil {
		t.Fatal("WaitReady succeeded for unknown model")
	}
	if !failed(inst) {
		t.Fatalf("state = %s, want FAILED", inst.State())
	}
}

func TestBootstrapFailureReleasesResources(t *testing.T) {
	r := newRig(t, 100000)
	free := r.plat.FreeCores()
	inst, _ := r.mgr.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "bad", Cores: 2},
		Model:           "gpt-99",
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.mgr.WaitReady(ctx, inst.UID())
	// allocation must be returned
	deadline := time.Now().Add(2 * time.Second)
	for r.plat.FreeCores() != free && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.plat.FreeCores() != free {
		t.Fatalf("cores leaked after failed bootstrap: %d != %d", r.plat.FreeCores(), free)
	}
}

func TestUnsatisfiableServiceFails(t *testing.T) {
	r := newRig(t, 100000)
	inst, _ := r.mgr.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "huge", GPUs: 100},
		Model:           "noop",
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.mgr.WaitReady(ctx, inst.UID()); err == nil {
		t.Fatal("unsatisfiable service became ready")
	}
}

func TestLivenessProbeDetectsKill(t *testing.T) {
	r := newRig(t, 100000)
	d := noopDesc("victim")
	d.ProbeInterval = 2 * time.Second // ~20µs real at this scale
	inst, _ := r.mgr.Submit(d)
	waitReady(t, r, inst.UID())
	inst.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !failed(inst) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !failed(inst) {
		t.Fatalf("state = %s, want FAILED after kill", inst.State())
	}
}

func TestConcurrentServiceHandlesParallelRequests(t *testing.T) {
	// the paper's future-work configuration: a service with Concurrency=4
	// must show near-zero queue time for 4 simultaneous clients, where the
	// single-threaded default serializes them
	r := newRig(t, 1000)
	single := llamaDesc("single")
	multi := llamaDesc("multi")
	multi.Concurrency = 4
	a, _ := r.mgr.Submit(single)
	b, _ := r.mgr.Submit(multi)
	waitReady(t, r, a.UID(), b.UID())

	run := func(uid string) time.Duration {
		ep := r.endpoint(uid)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var maxQ time.Duration
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := Dial(r.net, r.clock, "delta//cc-client", ep)
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
			}()
		}
		wg.Wait()
		return maxQ
	}
	qSingle := run(a.UID())
	qMulti := run(b.UID())
	if qMulti >= qSingle {
		t.Fatalf("concurrency=4 queued %v, single-threaded %v — no improvement", qMulti, qSingle)
	}
}

func TestServiceQueueCapThroughManager(t *testing.T) {
	r := newRig(t, 1000)
	d := llamaDesc("tiny-queue")
	d.QueueCap = 1
	inst, _ := r.mgr.Submit(d)
	waitReady(t, r, inst.UID())
	ep := inst.Endpoint()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(r.net, r.clock, "delta//qc-client", ep)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			_, _, err = cl.Infer(context.Background(), "p", 1024)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	rejected := 0
	for err := range errs {
		if err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no request rejected despite QueueCap=1 under 8-way burst")
	}
}

func TestWaitReadyUnknownUID(t *testing.T) {
	r := newRig(t, 100000)
	err := r.mgr.WaitReady(context.Background(), "service.404")
	if !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

// TestConcurrentServiceBootstrap is Exp 1 in miniature: 8 llama services on
// Delta (16 GPUs) bootstrap side by side on the virtual clock, so each is
// ACTIVE exactly its own launch, init and publish after submission.
func TestConcurrentServiceBootstrap(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	r := newRigOn(t, clock)
	const n = 8
	uids := make([]string, n)
	clock.AddRunner() // the submitter holds the clock until all are in
	for i := 0; i < n; i++ {
		inst, err := r.mgr.Submit(llamaDesc("svc"))
		if err != nil {
			t.Fatal(err)
		}
		uids[i] = inst.UID()
	}
	clock.DoneRunner()
	waitReady(t, r, uids...)
	for _, uid := range uids {
		inst, _ := r.mgr.Get(uid)
		active, ok := inst.machine.EnteredAt(states.ServiceActive)
		if want := origin.Add(inst.Bootstrap().Total()); !ok || !active.Equal(want) {
			t.Fatalf("%s ACTIVE at %v (%v), want %v", uid, active, inst.State(), want)
		}
	}
	if got := len(r.mgr.List()); got != n {
		t.Fatalf("manager holds %d services, want %d", got, n)
	}
}

func TestServicesStartBeforeTasks(t *testing.T) {
	// Submit a burst of compute tasks and then a service onto a saturated
	// scheduler: the service's raised priority must place it before the
	// queued tasks once resources free.
	r := newRig(t, 100000)
	var placedOrder []string
	var mu sync.Mutex
	// occupy all 16 GPUs with tasks, then queue 8 more tasks and 1 service
	taskPlaced := make(chan scheduler.Placement, 64)
	routeAll := func(p scheduler.Placement) {
		mu.Lock()
		placedOrder = append(placedOrder, p.Req.UID)
		mu.Unlock()
		if !r.rtr.Route(p) {
			taskPlaced <- p
		}
	}
	// swap the scheduler: build a dedicated one for this test
	sched := scheduler.New(r.plat.Nodes(), routeAll)
	defer sched.Close()
	for i := 0; i < 16; i++ {
		_ = sched.Submit(scheduler.Request{UID: fmt18("hold", i), GPUs: 1})
	}
	var holds []scheduler.Placement
	for i := 0; i < 16; i++ {
		holds = append(holds, <-taskPlaced)
	}
	for i := 0; i < 8; i++ {
		_ = sched.Submit(scheduler.Request{UID: fmt18("task", i), GPUs: 1, Priority: 0})
	}
	_ = sched.Submit(scheduler.Request{UID: "service.X", GPUs: 1, Priority: spec.ServicePriority})
	// release one GPU → the service must be placed next
	sched.Release(holds[0].Alloc)
	next := <-taskPlaced
	if next.Req.UID != "service.X" {
		t.Fatalf("placed %q first after release, want service.X", next.Req.UID)
	}
}

func fmt18(prefix string, i int) string { return prefix + "." + string(rune('a'+i)) }

// TestInferMalformedErrorBody: a KindError reply whose body is not an
// ErrorBody surfaces as a decode failure naming the service, not as an
// error with an empty message.
func TestInferMalformedErrorBody(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	net := msgq.NewNetwork(clock, rng.New(7), nil)
	defer net.Close()
	srv, err := net.Bind("svc.bad", func(env proto.Envelope) proto.Envelope {
		return proto.Envelope{Kind: proto.KindError, From: env.To, To: env.From, Body: []byte(`"not an object"`)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(net, clock, "client.0", proto.Endpoint{ServiceUID: "service.bad", Model: "noop", Address: "svc.bad"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.Infer(context.Background(), "hi", 0)
	var typeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) || !strings.HasPrefix(err.Error(), "service service.bad: proto: decode error body") {
		t.Fatalf("Infer err = %v, want the wrapped decode failure of service.bad's error body", err)
	}
}

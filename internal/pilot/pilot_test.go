package pilot

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func newPilot(t *testing.T, scale float64, desc spec.PilotDescription) (*Pilot, *platform.Platform) {
	t.Helper()
	return newHookedPilot(t, scale, desc, Hooks{})
}

// newHookedPilot is newPilot launched under hooks.
func newHookedPilot(t *testing.T, scale float64, desc spec.PilotDescription, hooks Hooks) (*Pilot, *platform.Platform) {
	t.Helper()
	clock := simtime.NewScaled(scale, origin)
	src := rng.New(11)
	plat := platform.DefaultTopology().Platform("delta")
	topo := platform.NewTopology(plat)
	net := msgq.NewNetwork(clock, src.Derive("net"), topo.Resolver())
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: plat, Hooks: hooks}, desc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.State() == states.PilotActive {
			_ = p.Shutdown()
		}
		net.Close()
	})
	return p, plat
}

func deltaPilot() spec.PilotDescription {
	return spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16}
}

func TestLaunchAcquiresWholeNodes(t *testing.T) {
	p, plat := newPilot(t, 100000, deltaPilot())
	if p.State() != states.PilotActive {
		t.Fatalf("state = %s", p.State())
	}
	if len(p.Nodes()) != 4 {
		t.Fatalf("pilot nodes = %d, want 4 (256 cores / 64 per node)", len(p.Nodes()))
	}
	if plat.FreeCores() != 0 || plat.FreeGPUs() != 0 {
		t.Fatal("platform resources not reserved by pilot")
	}
}

func TestLaunchByNodeCount(t *testing.T) {
	p, plat := newPilot(t, 100000, spec.PilotDescription{Platform: "delta", Nodes: 2})
	if len(p.Nodes()) != 2 {
		t.Fatalf("pilot nodes = %d", len(p.Nodes()))
	}
	if plat.FreeCores() != 128 {
		t.Fatalf("platform free cores = %d, want 128", plat.FreeCores())
	}
}

func TestLaunchInsufficient(t *testing.T) {
	clock := simtime.NewScaled(100000, origin)
	src := rng.New(1)
	plat := platform.DefaultTopology().Platform("delta")
	net := msgq.NewNetwork(clock, src, nil)
	defer net.Close()
	_, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: plat},
		spec.PilotDescription{Platform: "delta", Nodes: 99})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v", err)
	}
	if plat.FreeCores() != plat.TotalCores() {
		t.Fatal("failed launch leaked node allocations")
	}
}

func TestLaunchValidation(t *testing.T) {
	clock := simtime.NewScaled(1000, origin)
	src := rng.New(1)
	plat := platform.DefaultTopology().Platform("delta")
	net := msgq.NewNetwork(clock, src, nil)
	defer net.Close()
	if _, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: plat},
		spec.PilotDescription{}); err == nil {
		t.Fatal("accepted empty pilot description")
	}
	if _, err := Launch(Config{}, deltaPilot()); err == nil {
		t.Fatal("accepted empty config")
	}
}

func TestShutdownReleasesPlatform(t *testing.T) {
	p, plat := newPilot(t, 100000, deltaPilot())
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if p.State() != states.PilotDone {
		t.Fatalf("state = %s", p.State())
	}
	if plat.FreeCores() != plat.TotalCores() || plat.FreeGPUs() != plat.TotalGPUs() {
		t.Fatal("shutdown did not release platform resources")
	}
	if err := p.Shutdown(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double shutdown = %v", err)
	}
}

// TestShutdownSingleWinnerRace races N Shutdowns: exactly one runs the
// teardown and returns nil, every loser gets ErrNotActive only once the
// pilot is fully down (state DONE, platform released) — run under -race,
// where two teardowns used to collide on the allocation list.
func TestShutdownSingleWinnerRace(t *testing.T) {
	p, plat := newPilot(t, 100000, deltaPilot())
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = p.Shutdown()
			if p.State() != states.PilotDone || plat.FreeCores() != plat.TotalCores() {
				t.Errorf("caller %d returned from a half-torn pilot: state %s, %d/%d cores free",
					i, p.State(), plat.FreeCores(), plat.TotalCores())
			}
		}(i)
	}
	close(start)
	wg.Wait()
	won := 0
	for i, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrNotActive):
			t.Errorf("caller %d: err = %v, want nil or ErrNotActive", i, err)
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent Shutdowns returned nil, want exactly 1", won, callers)
	}
	if plat.FreeCores() != plat.TotalCores() || plat.FreeGPUs() != plat.TotalGPUs() {
		t.Fatal("shutdown did not release platform resources")
	}
}

func TestTaskLifecycle(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	task, err := p.SubmitTask(context.Background(), spec.TaskDescription{
		Name: "sim", Cores: 4, Duration: rng.ConstDuration(30 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := p.WaitTasks(ctx, task.UID()); err != nil {
		t.Fatal(err)
	}
	if task.State() != states.TaskDone {
		t.Fatalf("state = %s", task.State())
	}
	res := task.Result()
	if res.ExecTime < 20*time.Second || res.LaunchTime <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestTaskFuncPayload(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	var ran bool
	task, _ := p.SubmitTask(context.Background(), spec.TaskDescription{
		Name: "fn", Cores: 1,
		Func: func(ctx context.Context) error { ran = true; return nil },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := p.WaitTasks(ctx, task.UID()); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("function payload did not run")
	}
}

func TestTaskFailurePropagates(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	boom := errors.New("boom")
	task, _ := p.SubmitTask(context.Background(), spec.TaskDescription{
		Name: "bad", Cores: 1,
		Func: func(ctx context.Context) error { return boom },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := p.WaitTasks(ctx, task.UID())
	if !errors.Is(err, boom) {
		t.Fatalf("WaitTasks = %v, want boom", err)
	}
	if task.State() != states.TaskFailed {
		t.Fatalf("state = %s", task.State())
	}
}

func TestTaskWithStaging(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	task, _ := p.SubmitTask(context.Background(), spec.TaskDescription{
		Name: "staged", Cores: 1, Duration: rng.ConstDuration(time.Second),
		InputStaging: []spec.StagingDirective{
			{Source: "delta:/raw/a", Target: "delta:/sandbox/a", Bytes: 1 << 20, Mode: spec.StageCopy},
		},
		OutputStaging: []spec.StagingDirective{
			{Source: "delta:/sandbox/out", Target: "delta:/results/out", Bytes: 1 << 10, Mode: spec.StageCopy},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := p.WaitTasks(ctx, task.UID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Stage().Lookup("delta:/results/out"); !ok {
		t.Fatal("output staging did not register the result object")
	}
}

func TestManyTasksConcurrent(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	const n = 64
	uids := make([]string, n)
	for i := 0; i < n; i++ {
		task, err := p.SubmitTask(context.Background(), spec.TaskDescription{
			Name: "bulk", Cores: 4, Duration: rng.ConstDuration(5 * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		uids[i] = task.UID()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := p.WaitTasks(ctx, uids...); err != nil {
		t.Fatal(err)
	}
	if got := p.Executor().Completed(); got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
	// all resources back
	for _, node := range p.Nodes() {
		if node.FreeCores() != node.Spec().Cores {
			t.Fatalf("node %s leaked cores", node.Name())
		}
	}
}

func TestServiceViaPilot(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	inst, err := p.Services().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", GPUs: 1},
		Model:           "llama-8b",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Services().WaitReady(ctx, inst.UID()); err != nil {
		t.Fatal(err)
	}
	if got, ok := p.Services().Get(inst.UID()); !ok || got.Endpoint().Address == "" {
		t.Fatal("service endpoint not published via pilot agent")
	}
}

// TestLaunchHooksObserveService: a pilot's service hooks are in place from
// Launch on, so the first service sees its whole bring-up through ACTIVE and
// its one endpoint publication without a Rebind.
func TestLaunchHooksObserveService(t *testing.T) {
	var mu sync.Mutex
	var svcSeen []states.State
	var published []proto.Endpoint
	p, _ := newHookedPilot(t, 100000, deltaPilot(), Hooks{
		ServiceState: func(_ string, _, to states.State, _ time.Time) {
			mu.Lock()
			svcSeen = append(svcSeen, to)
			mu.Unlock()
		},
		OnServicePublish: func(ep proto.Endpoint) {
			mu.Lock()
			published = append(published, ep)
			mu.Unlock()
		},
	})
	inst, err := p.Services().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", GPUs: 1},
		Model:           "llama-8b",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Services().WaitReady(ctx, inst.UID()); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []states.State{
		states.ServiceSmgrScheduling, states.ServiceStagingInput, states.ServiceScheduling,
		states.ServiceLaunching, states.ServiceInitializing, states.ServicePublishing, states.ServiceActive,
	}
	if len(svcSeen) < len(want) || !reflect.DeepEqual(svcSeen[:len(want)], want) {
		t.Fatalf("service transitions %v, want them to open with %v", svcSeen, want)
	}
	if len(published) != 1 || published[0].ServiceUID != inst.UID() || published[0].Address != inst.Endpoint().Address {
		t.Fatalf("published %+v, want exactly the endpoint of %s at %q", published, inst.UID(), inst.Endpoint().Address)
	}
}

// TestStateCallbackObservesTransitions: the hooks a pilot is launched with see
// every transition from its first on, each stamped with the virtual instant it
// was entered: the pilot's LAUNCHING at the origin and ACTIVE after its
// sampled boot, then a task's whole lifecycle through DONE, its launch
// overhead plus its one-second Duration after its grant.
func TestStateCallbackObservesTransitions(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	defer net.Close()
	var mu sync.Mutex
	var pilotSeen, taskSeen []string
	stamp := func(s states.State, at time.Time) string { return fmt.Sprintf("%s@%v", s, at.Sub(origin)) }
	hooks := Hooks{
		PilotState: func(_ string, _, to states.State, at time.Time) {
			mu.Lock()
			pilotSeen = append(pilotSeen, stamp(to, at))
			mu.Unlock()
		},
		TaskState: func(_ string, _ states.State, steps []states.Record) {
			mu.Lock()
			for _, s := range steps {
				taskSeen = append(taskSeen, stamp(s.State, s.At))
			}
			mu.Unlock()
		},
	}
	var p *Pilot
	var err error
	done := make(chan struct{})
	clock.Go(func() {
		defer close(done)
		if p, err = Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"), Hooks: hooks}, deltaPilot()); err != nil {
			return
		}
		var task *Task
		if task, err = p.SubmitTask(context.Background(), spec.TaskDescription{
			Name: "cb", Cores: 1, Duration: rng.ConstDuration(time.Second),
		}); err != nil {
			return
		}
		err = p.WaitTasks(context.Background(), task.UID())
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown() //nolint:errcheck
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"PMGR_LAUNCHING@0s", "PMGR_ACTIVE@7.883678525s"}; !reflect.DeepEqual(pilotSeen, want) {
		t.Fatalf("pilot transitions %v, want %v", pilotSeen, want)
	}
	if want := []string{
		"TMGR_SCHEDULING@7.883678525s", "AGENT_STAGING_INPUT@7.883678525s", "AGENT_SCHEDULING@7.883678525s",
		"AGENT_EXECUTING@7.883678525s", "AGENT_STAGING_OUTPUT@10.726154058s", "DONE@10.726154058s",
	}; !reflect.DeepEqual(taskSeen, want) {
		t.Fatalf("task transitions %v, want %v", taskSeen, want)
	}
}

func TestWaitTasksAllWhenUnspecified(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	for i := 0; i < 4; i++ {
		_, _ = p.SubmitTask(context.Background(), spec.TaskDescription{
			Name: "t", Cores: 1, Duration: rng.ConstDuration(time.Second),
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.WaitTasks(ctx); err != nil {
		t.Fatal(err)
	}
	for _, task := range p.Tasks() {
		if task.State() != states.TaskDone {
			t.Fatalf("task %s = %s", task.UID(), task.State())
		}
	}
}

func TestWaitTasksUnknown(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	if err := p.WaitTasks(context.Background(), "task.404"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitTaskAfterShutdown(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	_ = p.Shutdown()
	if _, err := p.SubmitTask(context.Background(), spec.TaskDescription{
		Name: "late", Cores: 1, Duration: rng.ConstDuration(time.Second),
	}); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v", err)
	}
}

// newPilotOn launches a pilot on an arbitrary platform (newPilot is
// pinned to Delta).
func newPilotOn(t *testing.T, plat *platform.Platform, desc spec.PilotDescription, polName string) *Pilot {
	t.Helper()
	clock := simtime.NewScaled(100000, origin)
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), platform.NewTopology(plat).Resolver())
	p, err := Launch(Config{
		Clock: clock, Src: src, Net: net, Platform: plat, SchedPolicy: polName,
	}, desc)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.State() == states.PilotActive {
			_ = p.Shutdown()
		}
		net.Close()
	})
	return p
}

// TestLaunchSpansMixedShapes pins heterogeneous acquisition: a
// whole-campus pilot on a mixed platform owns nodes of every shape and
// reports them through Shapes.
func TestLaunchSpansMixedShapes(t *testing.T) {
	plat := platform.DefaultTopology().Platform("hetero")
	p := newPilotOn(t, plat, spec.PilotDescription{
		Platform: "hetero", Nodes: len(plat.Nodes()),
	}, "")
	if len(p.Nodes()) != len(plat.Nodes()) {
		t.Fatalf("pilot nodes = %d, want the whole campus (%d)", len(p.Nodes()), len(plat.Nodes()))
	}
	shapes := p.Shapes()
	if len(shapes) != 2 {
		t.Fatalf("pilot shapes = %+v, want fat + thin", shapes)
	}
	if !slices.Equal(shapes, plat.Shapes()) {
		t.Fatalf("pilot shapes = %+v, want the campus's %+v", shapes, plat.Shapes())
	}
	if plat.FreeCores() != 0 || plat.FreeGPUs() != 0 {
		t.Fatal("whole-campus pilot left platform capacity unreserved")
	}
}

// TestLaunchMixedCapacityAccumulates pins the Cores/GPUs acquisition
// path on a mixed platform: demand is met by accumulating capacity
// across shapes, and nodes contributing nothing toward the unmet
// dimensions are skipped.
func TestLaunchMixedCapacityAccumulates(t *testing.T) {
	fat := platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 256}
	thin := platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}

	// cores-dominated demand spans both shapes: 2 fat (128c) + 4 thin
	// (32c) reach 160 cores
	plat := platform.NewMixed("mix", []platform.NodeGroup{{Count: 2, Spec: fat}, {Count: 8, Spec: thin}})
	p := newPilotOn(t, plat, spec.PilotDescription{Platform: "mix", Cores: 160}, "")
	if len(p.Nodes()) != 6 {
		t.Fatalf("pilot nodes = %d, want 6 (2 fat + 4 thin)", len(p.Nodes()))
	}

	// a GPU demand on a thin-first platform must skip the GPU-less
	// partition instead of reserving it
	plat = platform.NewMixed("mix2", []platform.NodeGroup{{Count: 8, Spec: thin}, {Count: 2, Spec: fat}})
	p = newPilotOn(t, plat, spec.PilotDescription{Platform: "mix2", GPUs: 16}, "")
	if len(p.Nodes()) != 2 {
		t.Fatalf("pilot nodes = %d, want 2 fat nodes only", len(p.Nodes()))
	}
	for _, n := range p.Nodes() {
		if n.Spec() != fat {
			t.Fatalf("GPU pilot acquired a %+v node", n.Spec())
		}
	}
	if free := plat.FreeCores(); free != 8*8 {
		t.Fatalf("thin partition cores reserved by a GPU pilot: %d free, want 64", free)
	}

	// a dimension no shape provides fails fast instead of silently
	// granting an under-provisioned pilot (deliberate divergence from
	// the pre-mixed-shapes behavior: such a pilot's scheduler would
	// reject every task demanding that dimension anyway)
	cpuOnly := platform.New("cpuonly", 4, thin)
	cpuNet := msgq.NewNetwork(simtime.NewScaled(100000, origin), rng.New(1), nil)
	defer cpuNet.Close()
	_, err := Launch(Config{
		Clock: simtime.NewScaled(100000, origin), Src: rng.New(1), Net: cpuNet, Platform: cpuOnly,
	}, spec.PilotDescription{Platform: "cpuonly", Cores: 8, GPUs: 1})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("GPU demand on a GPU-less platform = %v, want ErrInsufficient", err)
	}
	if cpuOnly.FreeCores() != cpuOnly.TotalCores() {
		t.Fatal("failed GPU-less launch leaked core allocations")
	}

	// over-demand fails cleanly and releases everything
	plat = platform.NewMixed("mix3", []platform.NodeGroup{{Count: 8, Spec: thin}, {Count: 2, Spec: fat}})
	net := msgq.NewNetwork(simtime.NewScaled(100000, origin), rng.New(1), nil)
	defer net.Close()
	_, err = Launch(Config{
		Clock: simtime.NewScaled(100000, origin), Src: rng.New(1), Net: net, Platform: plat,
	}, spec.PilotDescription{Platform: "mix3", GPUs: 999})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-demand err = %v", err)
	}
	if plat.FreeGPUs() != 16 || plat.FreeCores() != plat.TotalCores() {
		t.Fatal("failed mixed launch leaked allocations")
	}
}

// TestPolicyResolution pins the policy selection: Config.SchedPolicy
// names the agent scheduler's policy, empty means strict, and a bad name
// fails the launch before any resources are acquired.
func TestPolicyResolution(t *testing.T) {
	launch := func(policy string) (*Pilot, error) {
		clock := simtime.NewScaled(100000, origin)
		src := rng.New(11)
		plat := platform.DefaultTopology().Platform("delta")
		net := msgq.NewNetwork(clock, src.Derive("net"), platform.NewTopology(plat).Resolver())
		p, err := Launch(Config{
			Clock: clock, Src: src, Net: net, Platform: plat, SchedPolicy: policy,
		}, deltaPilot())
		if err == nil {
			t.Cleanup(func() {
				if p.State() == states.PilotActive {
					_ = p.Shutdown()
				}
				net.Close()
			})
		}
		return p, err
	}

	for policy, want := range map[string]string{"": "strict", "best-fit": "best-fit"} {
		p, err := launch(policy)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Scheduler().Policy().Name(); got != want {
			t.Fatalf("policy %q = %q, want %q", policy, got, want)
		}
	}

	if _, err := launch("florble"); err == nil {
		t.Fatal("Launch accepted an unknown policy name")
	}
}

// TestShutdownFailsQueuedTasks pins the late-binding failure contract:
// a task still waiting for a scheduler grant when the pilot shuts down
// fails promptly with ErrPilotStopped (instead of wedging on the closed
// wait pool), while a task that was already executing keeps its own
// lifecycle.
func TestShutdownFailsQueuedTasks(t *testing.T) {
	p, _ := newPilot(t, 100000, spec.PilotDescription{Platform: "delta", Nodes: 1})
	ctx := context.Background()
	hold := rng.ConstDuration(1000 * time.Hour)

	running, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "holder", Cores: 64, Duration: hold})
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(task *Task, want states.State) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for task.State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("task %s stuck in %s, want %s", task.UID(), task.State(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(running, states.TaskExecuting)

	// The node is saturated: this one queues in the scheduler wait pool.
	queued, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "queued", Cores: 64, Duration: hold})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(queued, states.TaskScheduling)

	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitFor(queued, states.TaskFailed)
	if err := queued.Result().Err; !errors.Is(err, ErrPilotStopped) {
		t.Fatalf("queued task error = %v, want ErrPilotStopped", err)
	}
	select {
	case <-p.Stopped():
	default:
		t.Fatal("Stopped channel not closed after Shutdown")
	}
}

// TestPilotSnapshotReflectsLoad checks the router-facing load probe: the
// snapshot reports the pilot's shape table, and its wait depth moves with
// queued work.
func TestPilotSnapshotReflectsLoad(t *testing.T) {
	p, _ := newPilot(t, 100000, spec.PilotDescription{Platform: "delta", Nodes: 2})
	sn := p.Snapshot()
	if len(sn.Shapes) != 1 || sn.Shapes[0].Nodes != 2 || sn.Shapes[0].Spec.Cores != 64 {
		t.Fatalf("snapshot shapes = %+v", sn.Shapes)
	}
	if sn.Waiting != 0 || !sn.MayFitNow(64, 4, 0) {
		t.Fatalf("idle snapshot = %+v", sn)
	}
	hold := rng.ConstDuration(1000 * time.Hour)
	ctx := context.Background()
	for i := 0; i < 3; i++ { // two run (one per node), one queues
		if _, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "t", Cores: 64, Duration: hold}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sn = p.Snapshot()
		if sn.Scheduled == 2 && sn.Waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never settled: %+v", sn)
		}
		time.Sleep(time.Millisecond)
	}
	if sn.MayFitNow(64, 0, 0) {
		t.Fatal("saturated cores must fail the free-maxima check")
	}
}

// gatedTask launches a pilot whose state callback raises observed once it
// has seen the transition to want, and submits one task that blocks in its
// payload until release closes and then returns payloadErr.
func gatedTask(t *testing.T, want states.State, payloadErr error) (p *Pilot, task *Task, observed *atomic.Bool, release chan struct{}) {
	t.Helper()
	observed = new(atomic.Bool)
	p, _ = newHookedPilot(t, 100000, deltaPilot(), Hooks{TaskState: func(_ string, _ states.State, steps []states.Record) {
		if steps[len(steps)-1].State == want {
			runtime.Gosched() // whoever the transition itself woke would run here
			observed.Store(true)
		}
	}})
	release = make(chan struct{})
	task, err := p.SubmitTask(context.Background(), spec.TaskDescription{
		Name: "gated", Cores: 1,
		Func: func(context.Context) error { <-release; return payloadErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, task, observed, release
}

// TestWaitTasksSingleWinnerRace: 64 concurrent WaitTasks on one task each return
// once, with the task's verdict, and none before the task is final and the
// observers of its final transition have returned.
func TestWaitTasksSingleWinnerRace(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		err  error
		want states.State
	}{{"done", nil, states.TaskDone}, {"failed", boom, states.TaskFailed}} {
		t.Run(tc.name, func(t *testing.T) {
			p, task, observed, release := gatedTask(t, tc.want, tc.err)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			const waiters = 64
			var returned atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := p.WaitTasks(ctx, task.UID())
					returned.Add(1)
					if !errors.Is(err, tc.err) || task.State() != tc.want || !observed.Load() {
						t.Errorf("WaitTasks = %v with the task %s (final transition observed: %v), want %v in %s, observed",
							err, task.State(), observed.Load(), tc.err, tc.want)
					}
				}()
			}
			// An unsettled task holds a waiter until its context gives up.
			gone, giveUp := context.WithCancel(ctx)
			giveUp()
			if err := p.WaitTasks(gone, task.UID()); !errors.Is(err, context.Canceled) {
				t.Fatalf("WaitTasks on a blocked task, context cancelled: %v", err)
			}
			if n := returned.Load(); n != 0 {
				t.Fatalf("%d waiters returned while the payload was blocked", n)
			}
			close(release)
			wg.Wait()
			if n := returned.Load(); n != waiters {
				t.Fatalf("%d of %d waiters returned", n, waiters)
			}
			// A settled task is reported whatever the context says.
			if err := p.WaitTasks(gone, task.UID()); !errors.Is(err, tc.err) {
				t.Fatalf("WaitTasks on a settled task, context cancelled: %v, want %v", err, tc.err)
			}
		})
	}
}

// TestOnDoneSingleWinnerRace registers 64 hooks while the task runs to its end:
// whichever side of the final transition a registration lands on, its hook
// runs exactly once, after the transition's observers have returned; a hook
// registered on a settled task runs before OnDone returns.
func TestOnDoneSingleWinnerRace(t *testing.T) {
	p, task, observed, release := gatedTask(t, states.TaskDone, nil)
	const hooks = 64
	var fired [hooks]atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < hooks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == hooks/2 {
				close(release)
			}
			task.OnDone(func() {
				fired[i].Add(1)
				if task.State() != states.TaskDone || !observed.Load() {
					t.Errorf("hook %d ran with the task %s, final transition observed: %v", i, task.State(), observed.Load())
				}
			})
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.WaitTasks(ctx, task.UID()); err != nil {
		t.Fatal(err)
	}
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Errorf("hook %d ran %d times", i, n)
		}
	}
	late := 0
	task.OnDone(func() { late++ })
	if late != 1 {
		t.Fatalf("a hook registered on a settled task ran %d times before OnDone returned", late)
	}
}

package router

import (
	"errors"
	"testing"

	"repro/internal/platform"
	"repro/internal/scheduler"
	"repro/internal/spec"
)

// fakeTarget is a scripted pilot view.
type fakeTarget struct {
	uid    string
	groups []platform.NodeGroup
	snap   scheduler.Snapshot
}

func (f *fakeTarget) UID() string                  { return f.uid }
func (f *fakeTarget) Shapes() []platform.NodeGroup { return f.groups }
func (f *fakeTarget) Snapshot() scheduler.Snapshot { return f.snap }

func mkTarget(uid string, spec platform.NodeSpec, nodes, waiting, freeCores int) *fakeTarget {
	return &fakeTarget{
		uid:    uid,
		groups: []platform.NodeGroup{{Count: nodes, Spec: spec}},
		snap: scheduler.Snapshot{
			Waiting: waiting,
			Shapes: []scheduler.ShapeCapacity{{
				Spec: spec, Nodes: nodes, FreeCores: freeCores,
			}},
			MaxFreeCores: min(freeCores, spec.Cores),
			MaxFreeGPUs:  spec.GPUs,
			MaxFreeMemGB: spec.MemGB,
		},
	}
}

var (
	fat  = platform.NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}
	thin = platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
)

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"":             NameRoundRobin,
		"round-robin":  NameRoundRobin,
		"capacity-fit": NameCapacityFit,
	} {
		r, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if r.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q, want %q", name, r.Name(), want)
		}
	}
	for _, bad := range []string{"strict", "rr", "least-loaded", "capacity_fit", "capacityfit", "round-robin+retry", "capacity-fit+retry"} {
		if _, err := ByName(bad); err == nil {
			t.Fatalf("ByName accepted %q", bad)
		}
	}
}

// TestRoundRobinRotationAndNoAdvanceOnError pins the two round-robin
// contracts: strict rotation over targets, and a cursor that only moves
// when a selection is actually returned (the partial-failure semantics
// the TaskManager exposes).
func TestRoundRobinRotationAndNoAdvanceOnError(t *testing.T) {
	r := newRoundRobin()
	targets := []Target{
		mkTarget("p0", fat, 2, 0, 256),
		mkTarget("p1", fat, 2, 0, 256),
		mkTarget("p2", fat, 2, 0, 256),
	}
	d := spec.TaskDescription{Name: "t", Cores: 1}
	for i := 0; i < 9; i++ {
		got, err := r.Route(targets, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != i%3 {
			t.Fatalf("route %d = %d, want %d", i, got, i%3)
		}
	}
	if _, err := r.Route(nil, d); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("empty targets err = %v, want ErrNoTargets", err)
	}
	// The failed call must not have advanced the cursor.
	if got, _ := r.Route(targets, d); got != 0 {
		t.Fatalf("cursor advanced across a failed route: got %d, want 0", got)
	}
}

func TestCapacityFitRoutesOnShapes(t *testing.T) {
	r := newCapacityFit()
	thinPilot := mkTarget("thin", thin, 96, 0, 96*16)
	fatPilot := mkTarget("fat", fat, 32, 4, 32*128)

	// A whole-fat-node task fits only the fat pilot's shapes, even though
	// the thin pilot is idle and the fat one has queued work.
	i, err := r.Route([]Target{thinPilot, fatPilot},
		spec.TaskDescription{Name: "large", Cores: 128, GPUs: 16})
	if err != nil || i != 1 {
		t.Fatalf("large route = %d, %v; want 1 (fat pilot)", i, err)
	}

	// A thin task fits both; the idle thin pilot wins on load.
	i, err = r.Route([]Target{thinPilot, fatPilot},
		spec.TaskDescription{Name: "small", Cores: 16})
	if err != nil || i != 0 {
		t.Fatalf("small route = %d, %v; want 0 (idle thin pilot)", i, err)
	}

	// A task that fits no attached pilot's shapes is rejected at submit.
	_, err = r.Route([]Target{thinPilot, fatPilot},
		spec.TaskDescription{Name: "monster", Cores: 256})
	var unroutable ErrUnroutable
	if !errors.As(err, &unroutable) {
		t.Fatalf("monster err = %v, want ErrUnroutable", err)
	}
	if unroutable.Cores != 256 {
		t.Fatalf("ErrUnroutable echoes %+v", unroutable)
	}
	if _, err := r.Route(nil, spec.TaskDescription{Name: "t", Cores: 1}); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("empty targets err = %v, want ErrNoTargets", err)
	}
}

// TestCapacityFitPrefersFitsNow pins the late-binding preference: among
// ever-fitting pilots, one whose free single-node maxima admit the task
// right now beats a less-loaded pilot that would only queue it.
func TestCapacityFitPrefersFitsNow(t *testing.T) {
	r := newCapacityFit()
	// Both pilots' shapes fit the task; busy's nodes are drained (nothing
	// fits now) while full-capacity idle can start it immediately even
	// though its wait pool is deeper.
	busy := mkTarget("busy", fat, 4, 0, 0)
	busy.snap.MaxFreeCores = 0
	busy.snap.MaxFreeGPUs = 0
	busy.snap.MaxFreeMemGB = 0
	idle := mkTarget("idle", fat, 4, 3, 4*128)
	i, err := r.Route([]Target{busy, idle}, spec.TaskDescription{Name: "t", Cores: 64, GPUs: 8})
	if err != nil || i != 1 {
		t.Fatalf("route = %d, %v; want 1 (fits-now beats shallow queue)", i, err)
	}
	// When nobody fits now, queue on the shallowest ever-fitting pool.
	alsoBusy := mkTarget("busy2", fat, 4, 2, 0)
	alsoBusy.snap.MaxFreeCores = 0
	alsoBusy.snap.MaxFreeGPUs = 0
	alsoBusy.snap.MaxFreeMemGB = 0
	i, err = r.Route([]Target{busy, alsoBusy}, spec.TaskDescription{Name: "t", Cores: 64, GPUs: 8})
	if err != nil || i != 0 {
		t.Fatalf("route = %d, %v; want 0 (shallowest queue among queue-only)", i, err)
	}
}

// TestCapacityFitPrefersShallowQueueThenFreeCapacity pins the ranking
// inside one fits-now class: the shallowest wait pool wins, then the
// most weighted free capacity, then the lowest index.
func TestCapacityFitPrefersShallowQueueThenFreeCapacity(t *testing.T) {
	r := newCapacityFit()
	d := spec.TaskDescription{Name: "t", Cores: 1}
	// Every pilot fits the task now; p1 has the shallowest wait pool.
	i, err := r.Route([]Target{
		mkTarget("p0", fat, 2, 5, 256),
		mkTarget("p1", fat, 2, 1, 8),
		mkTarget("p2", fat, 2, 3, 256),
	}, d)
	if err != nil || i != 1 {
		t.Fatalf("route = %d, %v; want 1", i, err)
	}
	// Equal wait depth: more free weighted capacity wins.
	i, err = r.Route([]Target{
		mkTarget("p0", fat, 2, 2, 4),
		mkTarget("p1", fat, 2, 2, 200),
	}, d)
	if err != nil || i != 1 {
		t.Fatalf("route = %d, %v; want 1 (more free capacity)", i, err)
	}
	// Full tie: lowest index, deterministically.
	i, err = r.Route([]Target{
		mkTarget("p0", fat, 2, 2, 8),
		mkTarget("p1", fat, 2, 2, 8),
	}, d)
	if err != nil || i != 0 {
		t.Fatalf("route = %d, %v; want 0 (tie → lowest index)", i, err)
	}
}

// TestCapacityFitChecksEveryShapeDimension: the ever-fits filter covers
// GPUs and memory as well as cores, so a GPU task skips an idle CPU-only
// pilot and a task larger than every node's memory is rejected.
func TestCapacityFitChecksEveryShapeDimension(t *testing.T) {
	r := newCapacityFit()
	cpuOnly := mkTarget("cpu", thin, 8, 0, 8*16)
	gpu := mkTarget("gpu", fat, 1, 6, 0)
	i, err := r.Route([]Target{cpuOnly, gpu}, spec.TaskDescription{Name: "g", Cores: 1, GPUs: 1})
	if err != nil || i != 1 {
		t.Fatalf("gpu task route = %d, %v; want 1 (only pilot with GPUs)", i, err)
	}
	_, err = r.Route([]Target{cpuOnly, gpu}, spec.TaskDescription{Name: "m", Cores: 1, MemGB: 2048})
	var unroutable ErrUnroutable
	if !errors.As(err, &unroutable) {
		t.Fatalf("memory task err = %v, want ErrUnroutable", err)
	}
	if unroutable.MemGB != 2048 || unroutable.Cores != 1 || unroutable.GPUs != 0 {
		t.Fatalf("ErrUnroutable echoes %+v", unroutable)
	}
}

// TestErrUnroutableNamesTask: the rejection names the task by UID when it
// has one and by name otherwise, and its message carries the demand.
func TestErrUnroutableNamesTask(t *testing.T) {
	r := newCapacityFit()
	targets := []Target{mkTarget("thin0", thin, 4, 0, 64)}
	for _, tc := range []struct {
		d    spec.TaskDescription
		want string
	}{
		{spec.TaskDescription{UID: "task.000007", Name: "big", Cores: 32}, "task.000007"},
		{spec.TaskDescription{Name: "big", Cores: 32}, "big"},
	} {
		_, err := r.Route(targets, tc.d)
		var unroutable ErrUnroutable
		if !errors.As(err, &unroutable) {
			t.Fatalf("err = %v, want ErrUnroutable", err)
		}
		if unroutable.Task != tc.want {
			t.Fatalf("Task = %q, want %q", unroutable.Task, tc.want)
		}
		msg := "router: task " + tc.want + " (32 cores, 0 gpus, 0.0 GB per node) fits no attached pilot's node shapes"
		if err.Error() != msg {
			t.Fatalf("Error() = %q, want %q", err.Error(), msg)
		}
	}
}

// TestRoundRobinIsBlindToShapes pins the seed semantics the default
// router keeps: it never inspects shapes, so a task no pilot could run is
// still dispatched in rotation rather than rejected at submit.
func TestRoundRobinIsBlindToShapes(t *testing.T) {
	r := newRoundRobin()
	targets := []Target{
		mkTarget("thin0", thin, 4, 0, 64),
		mkTarget("thin1", thin, 4, 0, 64),
	}
	d := spec.TaskDescription{Name: "fat", Cores: fat.Cores, GPUs: fat.GPUs}
	for want := range 4 {
		i, err := r.Route(targets, d)
		if err != nil {
			t.Fatalf("route %d: %v", want, err)
		}
		if i != want%2 {
			t.Fatalf("route %d = %d, want %d", want, i, want%2)
		}
	}
}

// TestRoutersAreFreshInstances guards the per-manager state contract:
// ByName must hand out independent cursors.
func TestRoutersAreFreshInstances(t *testing.T) {
	a, _ := ByName(NameRoundRobin)
	b, _ := ByName(NameRoundRobin)
	targets := []Target{
		mkTarget("p0", fat, 1, 0, 128),
		mkTarget("p1", fat, 1, 0, 128),
	}
	d := spec.TaskDescription{Name: "t", Cores: 1}
	if i, _ := a.Route(targets, d); i != 0 {
		t.Fatalf("a first route = %d", i)
	}
	if i, _ := b.Route(targets, d); i != 0 {
		t.Fatalf("b first route = %d; cursors shared between instances", i)
	}
}

// --- drain ranking -----------------------------------------------------------

// TestCapacityFitRankDrain pins the overflow-drain ordering: fits-now
// descriptions first, submission order within each class.
func TestCapacityFitRankDrain(t *testing.T) {
	cf, ok := newCapacityFit().(Ranker)
	if !ok {
		t.Fatal("capacity-fit does not implement Ranker")
	}
	// Target with 16 free cores on its best node: only small tasks fit now.
	target := mkTarget("p0", fat, 2, 0, 16)
	descs := []spec.TaskDescription{
		{Name: "big-0", Cores: 128},
		{Name: "small-0", Cores: 8},
		{Name: "big-1", Cores: 64},
		{Name: "small-1", Cores: 16},
	}
	got := cf.RankDrain(target, descs)
	want := []int{1, 3, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("rank = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank = %v, want %v", got, want)
		}
	}
	// Round-robin has no ranking capability: the drain keeps seed order.
	if _, ok := newRoundRobin().(Ranker); ok {
		t.Fatal("round-robin unexpectedly implements Ranker")
	}
}

// TestCapacityFitRankDrainKeepsOrderWithinOneClass: when every parked
// description falls in the same class (all fit now, or none does), the
// drain is exactly submission order.
func TestCapacityFitRankDrainKeepsOrderWithinOneClass(t *testing.T) {
	cf := newCapacityFit().(Ranker)
	descs := []spec.TaskDescription{
		{Name: "a", Cores: 8},
		{Name: "b", Cores: 2},
		{Name: "c", Cores: 4},
	}
	drained := mkTarget("drained", fat, 2, 0, 0)
	idle := mkTarget("idle", fat, 2, 0, 256)
	for _, target := range []Target{drained, idle} {
		got := cf.RankDrain(target, descs)
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("%s: rank = %v, want [0 1 2]", target.UID(), got)
		}
	}
	if got := cf.RankDrain(idle, nil); len(got) != 0 {
		t.Fatalf("empty drain = %v", got)
	}
}

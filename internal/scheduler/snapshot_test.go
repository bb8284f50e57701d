package scheduler

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/rng"
)

// TestSnapshotTracksShapeAggregates pins the incrementally maintained
// per-shape free-capacity aggregates against a from-scratch recomputation
// under random allocation/release churn, point refreshes and periodic full
// rebuilds alike.
func TestSnapshotTracksShapeAggregates(t *testing.T) {
	specs := []platform.NodeSpec{
		{Cores: 128, GPUs: 16, MemGB: 1024},
		{Cores: 16, GPUs: 0, MemGB: 64},
		{Cores: 64, GPUs: 8, MemGB: 256},
	}
	src := rng.New(77)
	var nodes []*platform.Node
	for i := 0; i < 23; i++ {
		nodes = append(nodes, platform.NewNode(fmt.Sprintf("n%02d", i), specs[src.Intn(len(specs))]))
	}
	ix := newNodeIndex(nodes)

	oracle := func() map[platform.NodeSpec][3]float64 {
		out := make(map[platform.NodeSpec][3]float64)
		for _, n := range nodes {
			fc, fg, fm := n.Free()
			agg := out[n.Spec()]
			out[n.Spec()] = [3]float64{agg[0] + float64(fc), agg[1] + float64(fg), agg[2] + fm}
		}
		return out
	}
	check := func(step int) {
		t.Helper()
		want := oracle()
		for _, sh := range ix.shapes {
			w := want[sh.Spec]
			if float64(sh.FreeCores) != w[0] || float64(sh.FreeGPUs) != w[1] ||
				math.Abs(sh.FreeMemGB-w[2]) > 1e-9 {
				t.Fatalf("step %d: shape %+v aggregate = %d/%d/%.1f, oracle %.0f/%.0f/%.1f",
					step, sh.Spec, sh.FreeCores, sh.FreeGPUs, sh.FreeMemGB, w[0], w[1], w[2])
			}
		}
	}

	var live []*platform.Allocation
	for step := 0; step < 1200; step++ {
		switch {
		case step%97 == 0:
			ix.refreshAll() // periodic full re-sync must not drift the aggregates
		case src.Intn(3) == 0 && len(live) > 0:
			k := src.Intn(len(live))
			a := live[k]
			live = append(live[:k], live[k+1:]...)
			a.Release()
			ix.refresh(indexOf(nodes, a.Node()))
		default:
			cores, gpus := src.Intn(12), src.Intn(3)
			mem := float64(src.Intn(64))
			if i := ix.find(cores, gpus, mem); i >= 0 {
				if a := nodes[i].TryAlloc(cores, gpus, mem); a != nil {
					live = append(live, a)
					ix.refresh(i)
				}
			}
		}
		check(step)
	}
}

// TestSchedulerSnapshot drives a small scheduler and checks the snapshot's
// wait depth, grant count, shape table and fit predicates.
func TestSchedulerSnapshot(t *testing.T) {
	fat := platform.NodeSpec{Cores: 8, GPUs: 2, MemGB: 32}
	thin := platform.NodeSpec{Cores: 2, GPUs: 0, MemGB: 8}
	var nodes []*platform.Node
	nodes = append(nodes, platform.NewNode("fat0", fat))
	for i := 0; i < 3; i++ {
		nodes = append(nodes, platform.NewNode(fmt.Sprintf("thin%d", i), thin))
	}
	router := NewRouter()
	s := New(nodes, func(p Placement) { router.Route(p) })
	defer s.Close()

	sn := s.Snapshot()
	if sn.Waiting != 0 || sn.Scheduled != 0 {
		t.Fatalf("idle snapshot = %+v", sn)
	}
	if len(sn.Shapes) != 2 {
		t.Fatalf("shapes = %d, want 2", len(sn.Shapes))
	}
	if !sn.MayFitNow(8, 2, 32) {
		t.Fatal("idle pool must pass the free-maxima check for its largest shape")
	}
	wantFree := WeightedCapacity(8+3*2, 2, 32+3*8)
	if got := sn.FreeWeighted(); math.Abs(got-wantFree) > 1e-9 {
		t.Fatalf("FreeWeighted = %v, want %v", got, wantFree)
	}

	// Occupy the fat node, queue an un-placeable-now request behind it.
	ch := make(chan Placement, 1)
	router.Then("hog", func(p Placement) { ch <- p })
	if err := s.Submit(Request{UID: "hog", Cores: 8, GPUs: 2, MemGB: 32}); err != nil {
		t.Fatal(err)
	}
	pl := <-ch
	if err := s.Submit(Request{UID: "blocked", Cores: 8, GPUs: 2, MemGB: 32}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sn = s.Snapshot()
		if sn.Waiting == 1 && sn.Scheduled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never settled: %+v", sn)
		}
		time.Sleep(time.Millisecond)
	}
	if sn.MayFitNow(8, 2, 32) {
		t.Fatal("fat demand may not pass the maxima check with the fat node full")
	}
	for _, sh := range sn.Shapes {
		if sh.Spec == fat && (sh.FreeCores != 0 || sh.FreeGPUs != 0 || sh.FreeMemGB != 0) {
			t.Fatalf("fat shape aggregate not drained: %+v", sh)
		}
		if sh.Spec == thin && sh.FreeCores != 6 {
			t.Fatalf("thin shape aggregate = %+v, want 6 free cores", sh)
		}
	}
	s.Release(pl.Alloc)
}

// TestDeriveWeights pins the calibration rule: single-shape pools keep
// the global defaults, mixed pools derive cores-per-GPU and cores-per-GB
// from the nodes that carry those dimensions.
func TestDeriveWeights(t *testing.T) {
	homog := []platform.NodeGroup{{Count: 64, Spec: platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 512}}}
	if w := deriveWeights(homog); w != defaultWeights {
		t.Fatalf("homogeneous pool weights = %+v, want defaults %+v", w, defaultWeights)
	}
	hetero := []platform.NodeGroup{
		{Count: 32, Spec: platform.NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}},
		{Count: 96, Spec: platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}},
	}
	w := deriveWeights(hetero)
	if math.Abs(w.GPU-8) > 1e-9 { // 32·128 cores over 32·16 GPUs
		t.Fatalf("derived GPU weight = %v, want 8", w.GPU)
	}
	wantMem := float64(32*128+96*16) / float64(32*1024+96*64)
	if math.Abs(w.Mem-wantMem) > 1e-9 {
		t.Fatalf("derived Mem weight = %v, want %v", w.Mem, wantMem)
	}
	// A GPU-less mixed pool keeps the default GPU rate (nothing to
	// calibrate on) but still derives the memory rate.
	cpuOnly := []platform.NodeGroup{
		{Count: 4, Spec: platform.NodeSpec{Cores: 32, GPUs: 0, MemGB: 128}},
		{Count: 4, Spec: platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}},
	}
	w = deriveWeights(cpuOnly)
	if w.GPU != defaultWeights.GPU {
		t.Fatalf("GPU-less pool derived GPU weight %v, want default", w.GPU)
	}
	if math.Abs(w.Mem-0.25) > 1e-9 { // 160 cores / 640 GB
		t.Fatalf("Mem weight = %v, want 0.25", w.Mem)
	}
}

// TestDeriveWeightsHomogeneousIdenticalChoices is the satellite's pin: on
// every homogeneous catalog platform the per-pool calibration is a no-op,
// so best-fit picks exactly the node the global-scale fold picked —
// verified by replaying randomized allocation/query churn against an
// exhaustive oracle that folds on defaultWeights explicitly.
func TestDeriveWeightsHomogeneousIdenticalChoices(t *testing.T) {
	shapes := map[string]platform.NodeSpec{
		"frontier": {Cores: 64, GPUs: 8, MemGB: 512},
		"delta":    {Cores: 64, GPUs: 4, MemGB: 256},
		"r3":       {Cores: 128, GPUs: 16, MemGB: 1024},
	}
	for name, sp := range shapes {
		t.Run(name, func(t *testing.T) {
			src := rng.New(uint64(len(name)) * 131)
			var nodes []*platform.Node
			for i := 0; i < 29; i++ {
				nodes = append(nodes, platform.NewNode(fmt.Sprintf("n%02d", i), sp))
			}
			ix := newNodeIndex(nodes)
			if ix.w != defaultWeights {
				t.Fatalf("homogeneous pool calibrated to %+v, want defaults", ix.w)
			}
			defaultOracle := func(cores, gpus int, mem float64) int {
				best, bestScore := -1, 0.0
				for i, n := range nodes {
					fc, fg, fm := n.Free()
					if fc < cores || fg < gpus || fm < mem {
						continue
					}
					score := defaultWeights.Capacity(fc-cores, fg-gpus, fm-mem)
					if best < 0 || score < bestScore {
						best, bestScore = i, score
					}
				}
				return best
			}
			var live []*platform.Allocation
			for step := 0; step < 1500; step++ {
				if src.Intn(3) == 0 && len(live) > 0 {
					k := src.Intn(len(live))
					a := live[k]
					live = append(live[:k], live[k+1:]...)
					a.Release()
					ix.refresh(indexOf(nodes, a.Node()))
					continue
				}
				cores, gpus := src.Intn(sp.Cores+2), src.Intn(sp.GPUs+2)
				mem := float64(src.Intn(int(sp.MemGB) + 2))
				got := ix.findBest(cores, gpus, mem)
				want := defaultOracle(cores, gpus, mem)
				if got != want {
					t.Fatalf("step %d: findBest(%d,%d,%.0f) = %d, default-weight choice = %d",
						step, cores, gpus, mem, got, want)
				}
				if got >= 0 {
					if a := nodes[got].TryAlloc(cores, gpus, mem); a != nil {
						live = append(live, a)
						ix.refresh(got)
					}
				}
			}
		})
	}
}

// TestSnapshotGenerationCache pins the satellite contract: Snapshot is
// cached against the scheduler's mutation generation — identical while
// nothing changed, rebuilt (not stale) across every mutation class
// (submit, grant, release, close).
func TestSnapshotGenerationCache(t *testing.T) {
	plat := platform.New("snapgen", 4, platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32})
	placed := make(chan Placement, 8)
	s := New(plat.Nodes(), func(p Placement) { placed <- p })
	defer s.Close()

	// Quiescent: repeated snapshots serve the cache (same generation, same
	// backing Shapes array).
	g0 := s.gen.Load()
	sn1 := s.Snapshot()
	sn2 := s.Snapshot()
	if s.gen.Load() != g0 {
		t.Fatalf("Snapshot moved the generation: %d → %d", g0, s.gen.Load())
	}
	if &sn1.Shapes[0] != &sn2.Shapes[0] {
		t.Fatal("quiescent snapshots rebuilt instead of hitting the cache")
	}

	// A grant mutates free capacity: the generation moves and the next
	// snapshot sees the allocation.
	if err := s.Submit(Request{UID: "a", Cores: 8}); err != nil {
		t.Fatal(err)
	}
	pl := <-placed
	waitGen := func(old uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.gen.Load() == old {
			if time.Now().After(deadline) {
				t.Fatal("generation never advanced")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitGen(g0)
	sn3 := s.Snapshot()
	if free := sn3.Shapes[0].FreeCores; free != 3*8 {
		t.Fatalf("post-grant snapshot free cores = %d, want 24", free)
	}

	// Release restores capacity and invalidates again.
	g1 := s.gen.Load()
	s.Release(pl.Alloc)
	waitGen(g1)
	sn4 := s.Snapshot()
	if free := sn4.Shapes[0].FreeCores; free != 4*8 {
		t.Fatalf("post-release snapshot free cores = %d, want 32", free)
	}

	// And the cache stays correct when nothing but snapshots happen.
	for i := 0; i < 100; i++ {
		if got := s.Snapshot().Shapes[0].FreeCores; got != 32 {
			t.Fatalf("cached snapshot drifted: %d", got)
		}
	}
}

// TestSnapshotCacheAllocFree: cache hits must not allocate — that is the
// point of skipping the lock and the shape-table copy.
func TestSnapshotCacheAllocFree(t *testing.T) {
	plat := platform.New("snapalloc", 8, platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32})
	s := New(plat.Nodes(), func(p Placement) {})
	defer s.Close()
	s.Snapshot() // warm the cache
	allocs := testing.AllocsPerRun(100, func() {
		if s.Snapshot().Shapes[0].Nodes != 8 {
			t.Fatal("bad snapshot")
		}
	})
	if allocs > 0 {
		t.Fatalf("cached Snapshot allocates %.1f objects/op, want 0", allocs)
	}
}

package platform

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestNodeAllocRelease(t *testing.T) {
	n := NewNode("n0", NodeSpec{Cores: 8, GPUs: 2, MemGB: 64})
	a := n.TryAlloc(4, 1, 16)
	if a == nil {
		t.Fatal("TryAlloc failed on idle node")
	}
	if n.FreeCores() != 4 || n.FreeGPUs() != 1 || n.FreeMemGB() != 48 {
		t.Fatalf("free after alloc = %d cores, %d gpus, %v GB", n.FreeCores(), n.FreeGPUs(), n.FreeMemGB())
	}
	a.Release()
	if n.FreeCores() != 8 || n.FreeGPUs() != 2 || n.FreeMemGB() != 64 {
		t.Fatal("release did not restore resources")
	}
}

func TestNodeAllocExhaustion(t *testing.T) {
	n := NewNode("n0", NodeSpec{Cores: 4, GPUs: 1, MemGB: 8})
	if a := n.TryAlloc(5, 0, 0); a != nil {
		t.Fatal("allocated more cores than exist")
	}
	if a := n.TryAlloc(0, 2, 0); a != nil {
		t.Fatal("allocated more GPUs than exist")
	}
	if a := n.TryAlloc(0, 0, 9); a != nil {
		t.Fatal("allocated more memory than exists")
	}
	if a := n.TryAlloc(-1, 0, 0); a != nil {
		t.Fatal("accepted negative request")
	}
}

func TestNodeDoubleReleaseIsSafe(t *testing.T) {
	n := NewNode("n0", NodeSpec{Cores: 2, GPUs: 0, MemGB: 4})
	a := n.TryAlloc(2, 0, 4)
	a.Release()
	a.Release()
	if n.FreeCores() != 2 || n.FreeMemGB() != 4 {
		t.Fatal("double release corrupted accounting")
	}
}

func TestNodeAllocDeterministicSlots(t *testing.T) {
	n := NewNode("n0", NodeSpec{Cores: 4, GPUs: 2, MemGB: 8})
	a := n.TryAlloc(2, 1, 0)
	if a.Cores[0] != 0 || a.Cores[1] != 1 || a.GPUs[0] != 0 {
		t.Fatalf("slots = cores %v gpus %v, want lowest-first", a.Cores, a.GPUs)
	}
	b := n.TryAlloc(1, 1, 0)
	if b.Cores[0] != 2 || b.GPUs[0] != 1 {
		t.Fatalf("second alloc slots = cores %v gpus %v", b.Cores, b.GPUs)
	}
}

// TestNodeAllocSlotsInPlace: an allocation of up to four slots is one object,
// its slot lists in place; a larger one takes a second for them. Either way
// the lists are the lowest free slots and do not share capacity: appending to
// Cores leaves GPUs alone.
func TestNodeAllocSlotsInPlace(t *testing.T) {
	n := NewNode("n0", NodeSpec{Cores: 16, GPUs: 4, MemGB: 8})
	for _, tc := range []struct {
		cores, gpus int
		objects     float64
	}{{1, 0, 1}, {3, 1, 1}, {4, 0, 1}, {4, 1, 2}, {8, 2, 2}} {
		var a *Allocation
		if got := testing.AllocsPerRun(20, func() {
			if a != nil {
				a.Release()
			}
			a = n.TryAlloc(tc.cores, tc.gpus, 0)
		}); got != tc.objects {
			t.Errorf("TryAlloc(%d, %d): %.0f objects, want %.0f", tc.cores, tc.gpus, got, tc.objects)
		}
		if len(a.Cores) != tc.cores || len(a.GPUs) != tc.gpus || cap(a.Cores) != tc.cores {
			t.Fatalf("TryAlloc(%d, %d): cores %v (cap %d), gpus %v", tc.cores, tc.gpus, a.Cores, cap(a.Cores), a.GPUs)
		}
		for i, c := range a.Cores {
			if c != i {
				t.Fatalf("TryAlloc(%d, %d): cores %v, want lowest-first", tc.cores, tc.gpus, a.Cores)
			}
		}
		for i, g := range a.GPUs {
			if g != i {
				t.Fatalf("TryAlloc(%d, %d): gpus %v, want lowest-first", tc.cores, tc.gpus, a.GPUs)
			}
		}
		a.Release()
		if n.FreeCores() != 16 || n.FreeGPUs() != 4 {
			t.Fatalf("release of (%d, %d) left %d cores, %d gpus free", tc.cores, tc.gpus, n.FreeCores(), n.FreeGPUs())
		}
	}
}

func TestNodeConcurrentAllocConservation(t *testing.T) {
	n := NewNode("n0", NodeSpec{Cores: 64, GPUs: 8, MemGB: 512})
	var mu sync.Mutex
	var allocs []*Allocation
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a := n.TryAlloc(4, 1, 16); a != nil {
				mu.Lock()
				allocs = append(allocs, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// only 8 GPU slots exist → at most 8 allocations may succeed
	if len(allocs) != 8 {
		t.Fatalf("%d allocations succeeded, want 8 (GPU-bound)", len(allocs))
	}
	seen := map[int]bool{}
	for _, a := range allocs {
		for _, g := range a.GPUs {
			if seen[g] {
				t.Fatalf("GPU slot %d allocated twice", g)
			}
			seen[g] = true
		}
	}
	for _, a := range allocs {
		a.Release()
	}
	if n.FreeCores() != 64 || n.FreeGPUs() != 8 {
		t.Fatal("resources leaked after concurrent alloc/release")
	}
}

func TestAllocConservationProperty(t *testing.T) {
	// Property: any interleaving of TryAlloc/Release never over-allocates
	// and always restores the idle state after all releases.
	f := func(reqs []uint8) bool {
		n := NewNode("p", NodeSpec{Cores: 16, GPUs: 4, MemGB: 32})
		var live []*Allocation
		for _, r := range reqs {
			cores := int(r % 5)
			gpus := int((r >> 3) % 3)
			if a := n.TryAlloc(cores, gpus, float64(r%8)); a != nil {
				live = append(live, a)
			}
			if n.FreeCores() < 0 || n.FreeGPUs() < 0 || n.FreeMemGB() < 0 {
				return false
			}
			if len(live) > 2 { // release the oldest to churn
				live[0].Release()
				live = live[1:]
			}
		}
		for _, a := range live {
			a.Release()
		}
		return n.FreeCores() == 16 && n.FreeGPUs() == 4 && n.FreeMemGB() == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformTotals(t *testing.T) {
	p := New("test", 4, NodeSpec{Cores: 64, GPUs: 4, MemGB: 256})
	if p.TotalCores() != 256 || p.TotalGPUs() != 16 {
		t.Fatalf("totals = %d cores, %d gpus", p.TotalCores(), p.TotalGPUs())
	}
	if p.FreeCores() != 256 || p.FreeGPUs() != 16 {
		t.Fatal("fresh platform not fully free")
	}
	p.Nodes()[0].TryAlloc(64, 4, 0)
	if p.FreeCores() != 192 || p.FreeGPUs() != 12 {
		t.Fatalf("free after one full node = %d cores, %d gpus, want 192/12", p.FreeCores(), p.FreeGPUs())
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 nodes did not panic")
		}
	}()
	New("bad", 0, NodeSpec{})
}

func TestAddrRoundTrip(t *testing.T) {
	addr := Addr("delta", "delta-node0001", "service.0003")
	p, n, e, err := parseAddr(addr)
	if err != nil || p != "delta" || n != "delta-node0001" || e != "service.0003" {
		t.Fatalf("parseAddr = %q %q %q %v", p, n, e, err)
	}
	addr = Addr("delta", "", "client.0001")
	p, n, e, err = parseAddr(addr)
	if err != nil || p != "delta" || n != "" || e != "client.0001" {
		t.Fatalf("parseAddr(node-less) = %q %q %q %v", p, n, e, err)
	}
	if _, _, _, err := parseAddr("garbage"); err == nil {
		t.Fatal("parseAddr accepted malformed address")
	}
}

func TestLaunchModelSaturation(t *testing.T) {
	m := LaunchModel{
		Base:       rng.ConstDuration(2 * time.Second),
		Saturation: 160,
		PenaltyExp: 1.6,
	}
	low := m.Penalty(1)
	at := m.Penalty(160)
	over := m.Penalty(640)
	if low != 0 || at != 0 {
		t.Fatalf("below-saturation penalties %v/%v, want 0", low, at)
	}
	// 640/160 = 4; 4^1.6 ≈ 9.19 → (9.19-1) × 2s ≈ 16.4s on top of the base
	if over < 15*time.Second || over > 18*time.Second {
		t.Fatalf("penalty at 640 = %v, want ≈16.4s", over)
	}
}

func TestLaunchModelNoSaturation(t *testing.T) {
	m := LaunchModel{Base: rng.ConstDuration(time.Second)}
	if d := m.Penalty(100000); d != 0 {
		t.Fatalf("unsaturated model penalty = %v", d)
	}
}

func TestCatalogShapes(t *testing.T) {
	f := newFrontier()
	if got := f.TotalGPUs(); got != 640 {
		t.Fatalf("Frontier GPUs = %d, want 640 (paper Exp 1 pilot)", got)
	}
	d := newDelta()
	if d.TotalCores() != 256 || d.TotalGPUs() != 16 {
		t.Fatalf("Delta = %d cores / %d GPUs, want 256/16 (Table II)", d.TotalCores(), d.TotalGPUs())
	}
	r := newR3()
	if r.TotalGPUs() < 16 {
		t.Fatalf("R3 GPUs = %d, want >= 16 for the remote sweeps", r.TotalGPUs())
	}
}

func TestCatalogLatencies(t *testing.T) {
	d := newDelta()
	src := rng.New(7)
	const n = 2000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += d.LocalLatency.Sample(src)
	}
	mean := sum / n
	if mean < 50*time.Microsecond || mean > 80*time.Microsecond {
		t.Fatalf("Delta local latency mean = %v, want ≈63µs", mean)
	}
	wan := d.WANLatency["r3"]
	sum = 0
	for i := 0; i < n; i++ {
		sum += wan.Sample(src)
	}
	mean = sum / n
	if mean < 430*time.Microsecond || mean > 510*time.Microsecond {
		t.Fatalf("Delta→R3 latency mean = %v, want ≈470µs", mean)
	}
}

func TestTopologyResolver(t *testing.T) {
	topo := DefaultTopology()
	resolve := topo.Resolver()
	src := rng.New(3)

	sameNode := resolve(
		Addr("delta", "delta-node0000", "task.1"),
		Addr("delta", "delta-node0000", "service.1"))
	interNode := resolve(
		Addr("delta", "delta-node0000", "task.1"),
		Addr("delta", "delta-node0001", "service.1"))
	wan := resolve(
		Addr("delta", "delta-node0000", "task.1"),
		Addr("r3", "r3-node0000", "service.1"))

	avg := func(d rng.DurationDist) time.Duration {
		var sum time.Duration
		for i := 0; i < 500; i++ {
			sum += d.Sample(src)
		}
		return sum / 500
	}
	a, b, c := avg(sameNode.Latency), avg(interNode.Latency), avg(wan.Latency)
	if !(a < b && b < c) {
		t.Fatalf("latency ordering intra=%v inter=%v wan=%v, want increasing", a, b, c)
	}
	if c < 400*time.Microsecond {
		t.Fatalf("WAN latency %v too small", c)
	}
}

func TestTopologyResolverFallbacks(t *testing.T) {
	topo := NewTopology(newDelta())
	topo.DefaultWAN = rng.ConstDuration(time.Millisecond)
	resolve := topo.Resolver()
	src := rng.New(1)

	// unknown target platform → DefaultWAN
	p := resolve(Addr("delta", "delta-node0000", "t"), Addr("mars", "m0", "s"))
	if got := p.Latency.Sample(src); got != time.Millisecond {
		t.Fatalf("default WAN latency = %v", got)
	}
	// reverse entry: mars knows delta but not vice versa
	mars := New("mars", 1, NodeSpec{Cores: 1})
	mars.WANLatency["delta"] = rng.ConstDuration(2 * time.Millisecond)
	topo2 := NewTopology(newDelta(), mars)
	p = topo2.Resolver()(Addr("delta", "x", "t"), Addr("mars", "m0", "s"))
	if got := p.Latency.Sample(src); got != 2*time.Millisecond {
		t.Fatalf("reverse WAN lookup = %v, want 2ms", got)
	}
	// malformed addresses → free link
	p = topo.Resolver()("garbage", "also garbage")
	if !p.Latency.IsZero() {
		t.Fatal("malformed addresses got a latency profile")
	}
}

func TestTopologyAccessors(t *testing.T) {
	topo := DefaultTopology()
	if topo.Platform("delta") == nil || topo.Platform("nope") != nil {
		t.Fatal("Platform lookup broken")
	}
	want := []string{"delta", "frontier", "hetero", "r3"}
	if len(topo.platforms) != len(want) {
		t.Fatalf("default topology has %d platforms, want %v", len(topo.platforms), want)
	}
	for _, n := range want {
		if topo.Platform(n) == nil {
			t.Fatalf("default topology lacks %s", n)
		}
	}
}

func TestNewMixedShapes(t *testing.T) {
	fat := NodeSpec{Cores: 64, GPUs: 8, MemGB: 512}
	thin := NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}
	p := NewMixed("mix", []NodeGroup{{Count: 2, Spec: fat}, {Count: 3, Spec: thin}})
	if len(p.Nodes()) != 5 {
		t.Fatalf("nodes = %d, want 5", len(p.Nodes()))
	}
	// Node numbering is consecutive across groups, group order preserved.
	for i, wantSpec := range []NodeSpec{fat, fat, thin, thin, thin} {
		n := p.Nodes()[i]
		if n.Spec() != wantSpec {
			t.Fatalf("node %d spec = %+v, want %+v", i, n.Spec(), wantSpec)
		}
		if want := "mix-node000" + string(rune('0'+i)); n.Name() != want {
			t.Fatalf("node %d name = %q, want %q", i, n.Name(), want)
		}
	}
	if p.TotalCores() != 2*64+3*8 || p.TotalGPUs() != 16 {
		t.Fatalf("totals = %d cores / %d gpus", p.TotalCores(), p.TotalGPUs())
	}
	shapes := p.Shapes()
	if len(shapes) != 2 || shapes[0] != (NodeGroup{2, fat}) || shapes[1] != (NodeGroup{3, thin}) {
		t.Fatalf("Shapes = %+v", shapes)
	}
	if got := FormatShapes(shapes); got != "2×64c/8g + 3×8c/0g" {
		t.Fatalf("FormatShapes = %q", got)
	}
	// A homogeneous platform compresses to one group.
	if shapes := New("homo", 4, fat).Shapes(); len(shapes) != 1 || shapes[0].Count != 4 {
		t.Fatalf("homogeneous Shapes = %+v", shapes)
	}
}

func TestNewMixedPanicsOnBadGroup(t *testing.T) {
	for _, groups := range [][]NodeGroup{
		nil,
		{},
		{{Count: 0, Spec: NodeSpec{Cores: 1}}},
		{{Count: 2, Spec: NodeSpec{Cores: 1}}, {Count: -1, Spec: NodeSpec{Cores: 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMixed(%+v) did not panic", groups)
				}
			}()
			NewMixed("bad", groups)
		}()
	}
}

func TestHeteroCampusCatalog(t *testing.T) {
	p := newHeteroCampus()
	shapes := p.Shapes()
	if len(shapes) != 2 {
		t.Fatalf("hetero campus shapes = %+v, want fat + thin", shapes)
	}
	if shapes[0] != (NodeGroup{heteroFatNodes, heteroFatSpec}) {
		t.Fatalf("fat partition = %+v", shapes[0])
	}
	if shapes[1] != (NodeGroup{heteroThinNodes, heteroThinSpec}) {
		t.Fatalf("thin partition = %+v", shapes[1])
	}
	// The fat partition must come first in node order: the fragmentation
	// ablation depends on first-fit landing small tasks on fat nodes.
	if p.Nodes()[0].Spec() != heteroFatSpec {
		t.Fatal("hetero campus does not lead with the fat partition")
	}
	if p.TotalGPUs() != heteroFatNodes*heteroFatSpec.GPUs {
		t.Fatalf("hetero GPUs = %d", p.TotalGPUs())
	}
}

// TestNewMixedNodesIndependent: the nodes of a platform share one slot
// array, each a capacity-capped share of it. Filling node i's last core and
// last GPU leaves its other slot list and node i+1 as they were.
func TestNewMixedNodesIndependent(t *testing.T) {
	spec := NodeSpec{Cores: 4, GPUs: 2, MemGB: 16}
	p := NewMixed("ind", []NodeGroup{{Count: 2, Spec: NodeSpec{Cores: 2, GPUs: 1, MemGB: 8}}, {Count: 3, Spec: spec}})
	for i := 2; i < 4; i++ {
		n, next := p.Nodes()[i], p.Nodes()[i+1]
		if a := n.TryAlloc(spec.Cores-1, 0, 0); a == nil {
			t.Fatalf("node %d: TryAlloc of %d cores failed", i, spec.Cores-1)
		}
		if a := n.TryAlloc(0, spec.GPUs-1, 0); a == nil {
			t.Fatalf("node %d: TryAlloc of %d GPUs failed", i, spec.GPUs-1)
		}
		gpusBefore := append([]bool(nil), n.gpuUsed...)
		core := n.TryAlloc(1, 0, 0) // the last core
		if core == nil || core.Cores[0] != spec.Cores-1 {
			t.Fatalf("node %d: last core = %+v, want slot %d", i, core, spec.Cores-1)
		}
		if !slices.Equal(n.gpuUsed, gpusBefore) {
			t.Fatalf("node %d: filling the last core moved its GPUs %v → %v", i, gpusBefore, n.gpuUsed)
		}
		coresBefore := append([]bool(nil), n.coreUsed...)
		gpu := n.TryAlloc(0, 1, 0) // the last GPU
		if gpu == nil || gpu.GPUs[0] != spec.GPUs-1 {
			t.Fatalf("node %d: last GPU = %+v, want slot %d", i, gpu, spec.GPUs-1)
		}
		if !slices.Equal(n.coreUsed, coresBefore) {
			t.Fatalf("node %d: filling the last GPU moved its cores %v → %v", i, coresBefore, n.coreUsed)
		}
		if n.FreeCores() != 0 || n.FreeGPUs() != 0 {
			t.Fatalf("node %d: %d cores and %d GPUs free, want none", i, n.FreeCores(), n.FreeGPUs())
		}
		if c, g, _ := next.Free(); c != spec.Cores || g != spec.GPUs ||
			!slices.Equal(next.coreUsed, make([]bool, spec.Cores)) || !slices.Equal(next.gpuUsed, make([]bool, spec.GPUs)) {
			t.Fatalf("node %d full: node %d has %d cores, %d GPUs free, slots %v %v", i, i+1, c, g, next.coreUsed, next.gpuUsed)
		}
		if cap(n.coreUsed) != spec.Cores || cap(n.gpuUsed) != spec.GPUs {
			t.Fatalf("node %d: slot lists of capacity %d and %d, want %d and %d", i, cap(n.coreUsed), cap(n.gpuUsed), spec.Cores, spec.GPUs)
		}
	}
}

// TestNewMixedNodeNames: a node's name is fmt.Sprintf("%s-node%04d"), past
// 9 999 nodes too, where the number is five digits wide. Nodes only: no
// goroutine runs.
func TestNewMixedNodeNames(t *testing.T) {
	const total = 10_050
	p := NewMixed("wide", []NodeGroup{{Count: 50, Spec: NodeSpec{Cores: 1}}, {Count: total - 50, Spec: NodeSpec{GPUs: 1}}})
	if len(p.Nodes()) != total {
		t.Fatalf("%d nodes, want %d", len(p.Nodes()), total)
	}
	for i, n := range p.Nodes() {
		if want := fmt.Sprintf("%s-node%04d", "wide", i); n.Name() != want {
			t.Fatalf("node %d is named %q, want %q", i, n.Name(), want)
		}
	}
}

// TestDefaultTopologyAllocBudget pins what building the default topology
// costs in heap objects: every NewSession and every Recover builds one. It
// cost 1 022, five a node, when each node, its two slot bitmaps and its name
// were objects of their own; with a platform's nodes, bitmaps and names one
// array each it costs 49, most of them the latency models and WAN tables of
// the four platforms. A platform is the same few arrays whatever its size,
// so one twice as large costs the same count.
func TestDefaultTopologyAllocBudget(t *testing.T) {
	const budget = 49
	if n := testing.AllocsPerRun(20, func() { DefaultTopology() }); n != budget {
		t.Errorf("DefaultTopology allocates %.0f objects, want %d", n, budget)
	}
	groups := newHeteroCampus().Shapes()
	twice := append([]NodeGroup(nil), groups...)
	for i := range twice {
		twice[i].Count *= 2
	}
	once := testing.AllocsPerRun(20, func() { NewMixed("hetero", groups) })
	if n := testing.AllocsPerRun(20, func() { NewMixed("hetero", twice) }); n != once {
		t.Errorf("a platform of %v allocates %.0f objects, one of %v %.0f: want the same count", twice, n, groups, once)
	}
}

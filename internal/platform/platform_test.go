package platform

import (
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
	c, g := p.Utilization()
	if c != 0 || g != 0 {
		t.Fatalf("idle utilization = %v/%v", c, g)
	}
	p.Nodes()[0].TryAlloc(64, 4, 0)
	c, g = p.Utilization()
	if c != 0.25 || g != 0.25 {
		t.Fatalf("utilization = %v/%v, want 0.25/0.25", c, g)
	}
}

func TestPlatformNodeLookup(t *testing.T) {
	p := New("test", 2, NodeSpec{Cores: 1})
	if p.Node("test-node0001") == nil {
		t.Fatal("Node lookup failed")
	}
	if p.Node("nope") != nil {
		t.Fatal("Node lookup invented a node")
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
	p, n, e, err := ParseAddr(addr)
	if err != nil || p != "delta" || n != "delta-node0001" || e != "service.0003" {
		t.Fatalf("ParseAddr = %q %q %q %v", p, n, e, err)
	}
	addr = Addr("delta", "", "client.0001")
	p, n, e, err = ParseAddr(addr)
	if err != nil || p != "delta" || n != "" || e != "client.0001" {
		t.Fatalf("ParseAddr(node-less) = %q %q %q %v", p, n, e, err)
	}
	if _, _, _, err := ParseAddr("garbage"); err == nil {
		t.Fatal("ParseAddr accepted malformed address")
	}
}

func TestLaunchModelSaturation(t *testing.T) {
	src := rng.New(42)
	m := LaunchModel{
		Base:       rng.ConstDuration(2 * time.Second),
		Saturation: 160,
		PenaltyExp: 1.6,
	}
	low := m.Sample(src, 1)
	at := m.Sample(src, 160)
	over := m.Sample(src, 640)
	if low != 2*time.Second || at != 2*time.Second {
		t.Fatalf("below-saturation samples %v/%v, want 2s", low, at)
	}
	if over <= 2*time.Second {
		t.Fatalf("sample at 640 = %v, want > base", over)
	}
	// 640/160 = 4; 4^1.6 ≈ 9.19 → ~18.4s total
	if over < 15*time.Second || over > 22*time.Second {
		t.Fatalf("sample at 640 = %v, want ≈18s", over)
	}
}

func TestLaunchModelNoSaturation(t *testing.T) {
	src := rng.New(1)
	m := LaunchModel{Base: rng.ConstDuration(time.Second)}
	if d := m.Sample(src, 100000); d != time.Second {
		t.Fatalf("unsaturated model sample = %v", d)
	}
}

func TestCatalogShapes(t *testing.T) {
	f := NewFrontier()
	if got := f.TotalGPUs(); got != 640 {
		t.Fatalf("Frontier GPUs = %d, want 640 (paper Exp 1 pilot)", got)
	}
	d := NewDelta()
	if d.TotalCores() != 256 || d.TotalGPUs() != 16 {
		t.Fatalf("Delta = %d cores / %d GPUs, want 256/16 (Table II)", d.TotalCores(), d.TotalGPUs())
	}
	r := NewR3()
	if r.TotalGPUs() < 16 {
		t.Fatalf("R3 GPUs = %d, want >= 16 for the remote sweeps", r.TotalGPUs())
	}
}

func TestCatalogLatencies(t *testing.T) {
	d := NewDelta()
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
	topo := NewTopology(NewDelta())
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
	topo2 := NewTopology(NewDelta(), mars)
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
	names := topo.PlatformNames()
	want := []string{"delta", "frontier", "hetero", "r3"}
	if len(names) != len(want) {
		t.Fatalf("PlatformNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("PlatformNames = %v, want %v", names, want)
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
	p := NewHeteroCampus()
	shapes := p.Shapes()
	if len(shapes) != 2 {
		t.Fatalf("hetero campus shapes = %+v, want fat + thin", shapes)
	}
	if shapes[0] != (NodeGroup{HeteroFatNodes, HeteroFatSpec}) {
		t.Fatalf("fat partition = %+v", shapes[0])
	}
	if shapes[1] != (NodeGroup{HeteroThinNodes, HeteroThinSpec}) {
		t.Fatalf("thin partition = %+v", shapes[1])
	}
	// The fat partition must come first in node order: the fragmentation
	// ablation depends on first-fit landing small tasks on fat nodes.
	if p.Nodes()[0].Spec() != HeteroFatSpec {
		t.Fatal("hetero campus does not lead with the fat partition")
	}
	if p.TotalGPUs() != HeteroFatNodes*HeteroFatSpec.GPUs {
		t.Fatalf("hetero GPUs = %d", p.TotalGPUs())
	}
}

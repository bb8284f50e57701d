package scheduler

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/rng"
)

// --- nodeIndex unit property -------------------------------------------------

// TestNodeIndexMatchesLinearScan drives random allocations and releases
// over a heterogeneous node set and checks after every step that the
// segment tree answers every demand query exactly like the seed's linear
// first-fit scan.
func TestNodeIndexMatchesLinearScan(t *testing.T) {
	src := rng.New(42)
	specs := []platform.NodeSpec{
		{Cores: 8, GPUs: 0, MemGB: 32},
		{Cores: 64, GPUs: 8, MemGB: 256},
		{Cores: 16, GPUs: 2, MemGB: 64},
	}
	var nodes []*platform.Node
	for i := 0; i < 37; i++ { // deliberately not a power of two
		sp := specs[src.Intn(len(specs))]
		nodes = append(nodes, platform.NewNode(fmt.Sprintf("n%02d", i), sp))
	}
	ix := newNodeIndex(nodes)

	linearFind := func(cores, gpus int, mem float64) int {
		for i, n := range nodes {
			fc, fg, fm := n.Free()
			if fc >= cores && fg >= gpus && fm >= mem {
				return i
			}
		}
		return -1
	}

	var live []*platform.Allocation
	for step := 0; step < 2000; step++ {
		if src.Intn(3) == 0 && len(live) > 0 {
			// release a random live allocation
			k := src.Intn(len(live))
			a := live[k]
			live = append(live[:k], live[k+1:]...)
			a.Release()
			ix.refresh(indexOf(nodes, a.Node()))
		} else {
			cores, gpus := src.Intn(10), src.Intn(3)
			mem := float64(src.Intn(64))
			want := linearFind(cores, gpus, mem)
			got := ix.find(cores, gpus, mem)
			if got != want {
				t.Fatalf("step %d: find(%d,%d,%.0f) = %d, linear scan = %d",
					step, cores, gpus, mem, got, want)
			}
			if got >= 0 {
				a := nodes[got].TryAlloc(cores, gpus, mem)
				if a == nil {
					t.Fatalf("step %d: index pointed at node %d but TryAlloc failed", step, got)
				}
				live = append(live, a)
				ix.refresh(got)
			}
		}
	}
}

// findBestExhaustive is the PR-2 best-fit query kept as a test-only
// oracle: visit every fitting leaf (pruning only non-fitting subtrees)
// and keep the least weighted leftover, ties toward the lower index.
// The augmented findBest must agree with it on every pool state.
func findBestExhaustive(ix *nodeIndex, cores, gpus int, memGB float64) int {
	best, bestScore := -1, 0.0
	var walk func(p int)
	walk = func(p int) {
		if !ix.covers(p, cores, gpus, memGB) {
			return
		}
		if p >= ix.size {
			i := p - ix.size
			if i >= len(ix.nodes) {
				return
			}
			score := float64(ix.cores[p]-cores) +
				ix.w.GPU*float64(ix.gpus[p]-gpus) +
				ix.w.Mem*(ix.mem[p]-memGB)
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
			return
		}
		walk(2 * p)
		walk(2*p + 1)
	}
	if len(ix.nodes) > 0 {
		walk(1)
	}
	return best
}

// leftoverScore recomputes a node's weighted leftover for a demand, for
// tie verification in the differential test.
func leftoverScore(ix *nodeIndex, i, cores, gpus int, memGB float64) float64 {
	leaf := ix.size + i
	return float64(ix.cores[leaf]-cores) +
		ix.w.GPU*float64(ix.gpus[leaf]-gpus) +
		ix.w.Mem*(ix.mem[leaf]-memGB)
}

// TestFindBestMatchesExhaustiveOracle is the differential test for the
// min-leftover augmentation: on randomized mixed pools under random
// allocation/release churn, the O(log n) branch-and-bound findBest must
// pick the same node as the exhaustive least-leftover scan — or, on a
// tie, a node with exactly equal leftover.
func TestFindBestMatchesExhaustiveOracle(t *testing.T) {
	specs := []platform.NodeSpec{
		{Cores: 128, GPUs: 16, MemGB: 1024},
		{Cores: 64, GPUs: 8, MemGB: 256},
		{Cores: 16, GPUs: 0, MemGB: 64},
		{Cores: 8, GPUs: 2, MemGB: 32},
	}
	for trial := 0; trial < 5; trial++ {
		src := rng.New(uint64(9000 + trial))
		var nodes []*platform.Node
		n := 17 + src.Intn(48) // deliberately spans non-power-of-two sizes
		for i := 0; i < n; i++ {
			sp := specs[src.Intn(len(specs))]
			nodes = append(nodes, platform.NewNode(fmt.Sprintf("n%02d", i), sp))
		}
		ix := newNodeIndex(nodes)
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
			cores, gpus := src.Intn(20), src.Intn(4)
			mem := float64(src.Intn(96))
			got := ix.findBest(cores, gpus, mem)
			want := findBestExhaustive(ix, cores, gpus, mem)
			switch {
			case got == want:
			case got < 0 || want < 0:
				t.Fatalf("trial %d step %d: findBest(%d,%d,%.0f) = %d, oracle = %d",
					trial, step, cores, gpus, mem, got, want)
			default:
				gs := leftoverScore(ix, got, cores, gpus, mem)
				ws := leftoverScore(ix, want, cores, gpus, mem)
				if gs != ws {
					t.Fatalf("trial %d step %d: findBest(%d,%d,%.0f) = %d (leftover %v), oracle = %d (leftover %v)",
						trial, step, cores, gpus, mem, got, gs, want, ws)
				}
			}
			if got >= 0 {
				a := nodes[got].TryAlloc(cores, gpus, mem)
				if a == nil {
					t.Fatalf("trial %d step %d: findBest pointed at node %d but TryAlloc failed", trial, step, got)
				}
				live = append(live, a)
				ix.refresh(got)
			}
		}
	}
}

func indexOf(nodes []*platform.Node, n *platform.Node) int {
	for i, m := range nodes {
		if m == n {
			return i
		}
	}
	return -1
}

// --- end-to-end equivalence with the seed first-fit --------------------------

// refGrant is one grant of the reference scheduler.
type refGrant struct {
	uid   string
	node  string
	cores []int
	gpus  []int
}

// refScheduler replays the seed algorithm exactly: a strict
// (priority desc, FIFO) wait pool drained by a linear first-fit scan over
// a mirror node set whenever capacity changes.
type refScheduler struct {
	nodes   []*platform.Node
	allocs  map[string][]*platform.Allocation // uid → live mirror allocations
	waiting []waitItem
	seq     uint64
	grants  []refGrant
}

func newRefScheduler(n, cores, gpus int, memGB float64) *refScheduler {
	p := platform.New("ref", n, platform.NodeSpec{Cores: cores, GPUs: gpus, MemGB: memGB})
	return &refScheduler{nodes: p.Nodes(), allocs: make(map[string][]*platform.Allocation)}
}

func (r *refScheduler) submit(req Request) {
	r.seq++
	r.waiting = append(r.waiting, waitItem{req: req, seq: r.seq})
	r.drain()
}

func (r *refScheduler) release(uid string) {
	q := r.allocs[uid]
	a := q[0]
	r.allocs[uid] = q[1:]
	a.Release()
	r.drain()
}

func (r *refScheduler) drain() {
	for len(r.waiting) > 0 {
		// strict priority, FIFO within class: pick min (priority desc, seq)
		best := 0
		for i := 1; i < len(r.waiting); i++ {
			bi, bb := r.waiting[i], r.waiting[best]
			if bi.req.Priority > bb.req.Priority ||
				(bi.req.Priority == bb.req.Priority && bi.seq < bb.seq) {
				best = i
			}
		}
		head := r.waiting[best]
		var alloc *platform.Allocation
		for _, n := range r.nodes {
			if a := n.TryAlloc(head.req.Cores, head.req.GPUs, head.req.MemGB); a != nil {
				alloc = a
				break
			}
		}
		if alloc == nil {
			return // head blocked: strict no-backfill
		}
		r.waiting = append(r.waiting[:best], r.waiting[best+1:]...)
		r.allocs[head.req.UID] = append(r.allocs[head.req.UID], alloc)
		r.grants = append(r.grants, refGrant{
			uid:   head.req.UID,
			node:  alloc.Node().Name(),
			cores: alloc.Cores,
			gpus:  alloc.GPUs,
		})
	}
}

// TestIndexedPlacementMatchesSeedFirstFit is the property test for the
// scheduler rebuild: on randomized submit/release traces the indexed,
// batch-draining scheduler must grant the identical placement sequence —
// same order, same UIDs, same nodes, same slot indices — as the seed's
// lock-per-grant linear first-fit.
func TestIndexedPlacementMatchesSeedFirstFit(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := rng.New(uint64(1000 + trial))
		const nNodes, nCores, nGPUs = 5, 16, 4
		const memGB = 256.0 // must mirror the nodes() helper's spec exactly

		clock := heldClock(t)
		c := newCollector()
		s := New(nodes(nNodes, nCores, nGPUs), c.fn, WithClock(clock))
		ref := newRefScheduler(nNodes, nCores, nGPUs, memGB)

		granted := make(map[string][]Placement) // uid → live real placements
		nGrants := 0
		syncGrants := func() {
			got := c.waitN(t, len(ref.grants))
			for ; nGrants < len(ref.grants); nGrants++ {
				g, want := got[nGrants], ref.grants[nGrants]
				if g.Req.UID != want.uid || g.Alloc.Node().Name() != "test-"+nodeSuffix(want.node) {
					t.Fatalf("trial %d grant %d: got %s on %s, seed first-fit gives %s on %s",
						trial, nGrants, g.Req.UID, g.Alloc.Node().Name(), want.uid, want.node)
				}
				if !equalInts(g.Alloc.Cores, want.cores) || !equalInts(g.Alloc.GPUs, want.gpus) {
					t.Fatalf("trial %d grant %d (%s): slots %v/%v, seed gives %v/%v",
						trial, nGrants, g.Req.UID, g.Alloc.Cores, g.Alloc.GPUs, want.cores, want.gpus)
				}
				granted[g.Req.UID] = append(granted[g.Req.UID], g)
			}
		}

		var releasable []string
		for ev := 0; ev < 120; ev++ {
			if src.Intn(3) != 0 || len(releasable) == 0 {
				uid := fmt.Sprintf("t%03d", ev)
				req := Request{
					UID:      uid,
					Cores:    src.Intn(nCores) + 1,
					GPUs:     src.Intn(nGPUs + 1),
					MemGB:    float64(src.Intn(32)),
					Priority: src.Intn(3) * 10,
				}
				if err := s.Submit(req); err != nil {
					t.Fatalf("trial %d: submit %s: %v", trial, uid, err)
				}
				ref.submit(req)
				releasable = append(releasable, uid)
			} else {
				k := src.Intn(len(releasable))
				uid := releasable[k]
				q := granted[uid]
				if len(q) == 0 {
					continue // not granted yet (blocked in both schedulers)
				}
				releasable = append(releasable[:k], releasable[k+1:]...)
				granted[uid] = q[1:]
				s.Release(q[0].Alloc)
				ref.release(uid)
			}
			syncGrants()
		}
		// final quiescence: both wait pools must agree
		clock.Settle()
		if w := s.Waiting(); w != len(ref.waiting) {
			t.Fatalf("trial %d: %d waiting, seed leaves %d", trial, w, len(ref.waiting))
		}
		s.Close()
	}
}

func nodeSuffix(refName string) string {
	// ref nodes are "ref-nodeNNNN", real test nodes "test-nodeNNNN"
	return refName[len("ref-"):]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNegativeDemandRejected pins the guard against demand values no node
// can ever grant: Node.TryAlloc rejects negative requests, so admitting
// one would leave it wedged at the wait-pool head (and, with the index's
// miss-recovery loop, livelock the scheduler goroutine).
func TestNegativeDemandRejected(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 8, 2), c.fn)
	defer s.Close()
	for _, req := range []Request{
		{UID: "neg-cores", Cores: -1},
		{UID: "neg-gpus", GPUs: -2},
		{UID: "neg-mem", MemGB: -0.5},
	} {
		var uns ErrUnsatisfiable
		if err := s.Submit(req); !errors.As(err, &uns) {
			t.Fatalf("Submit(%s) = %v, want ErrUnsatisfiable", req.UID, err)
		}
	}
	// the scheduler must still be fully operational
	if err := s.Submit(Request{UID: "ok", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.waitN(t, 1); got[0].Req.UID != "ok" {
		t.Fatalf("placement = %+v", got[0])
	}
}

// TestOutOfBandReleaseRecovered verifies the release-epoch re-sync: when
// an allocation is released directly (bypassing Scheduler.Release, as the
// service manager's failure paths do), the next scheduling kick must still
// see the freed capacity.
func TestOutOfBandReleaseRecovered(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn)
	defer s.Close()
	_ = s.Submit(Request{UID: "a", Cores: 4})
	first := c.waitN(t, 1)[0]
	_ = s.Submit(Request{UID: "b", Cores: 4})
	first.Alloc.Release() // behind the scheduler's back: no index refresh
	s.mu.Lock()
	s.pokeLocked() // a bare kick, as any later Submit would deliver
	s.mu.Unlock()
	got := c.waitN(t, 2)
	if got[1].Req.UID != "b" {
		t.Fatalf("placement after out-of-band release = %s", got[1].Req.UID)
	}
}

// TestIndexPriorityPreservation floods a saturated pilot with requests of
// mixed priorities and verifies the indexed scheduler still grants in
// strict (priority desc, submission order) sequence as capacity trickles
// back — the §III service-before-task guarantee.
func TestIndexPriorityPreservation(t *testing.T) {
	c := newCollector()
	s := New(nodes(2, 4, 0), c.fn)
	defer s.Close()
	// saturate both nodes
	_ = s.Submit(Request{UID: "fill-a", Cores: 4})
	_ = s.Submit(Request{UID: "fill-b", Cores: 4})
	fillers := c.waitN(t, 2)

	prios := []int{0, 50, 10, 50, 0, 100, 10, 100, 0, 50}
	for i, p := range prios {
		_ = s.Submit(Request{UID: fmt.Sprintf("q-%02d-p%03d", i, p), Cores: 4, Priority: p})
	}
	want := []string{
		"q-05-p100", "q-07-p100",
		"q-01-p050", "q-03-p050", "q-09-p050",
		"q-02-p010", "q-06-p010",
		"q-00-p000", "q-04-p000", "q-08-p000",
	}
	for _, f := range fillers {
		s.Release(f.Alloc)
	}
	seen := 2
	for _, wantUID := range want {
		got := c.waitN(t, seen+1)
		if uid := got[seen].Req.UID; uid != wantUID {
			t.Fatalf("grant %d: %s, want %s", seen-2, uid, wantUID)
		}
		s.Release(got[seen].Alloc)
		seen++
	}
}

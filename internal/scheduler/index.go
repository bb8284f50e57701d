package scheduler

import (
	"math"

	"repro/internal/platform"
)

// nodeIndex is a max-capacity segment tree over the scheduler's node list.
// Each leaf mirrors one node's free cores / GPUs / memory; each inner
// segment holds the per-dimension maxima of its children. It answers the
// first-fit query — "lowest node index whose free capacity covers a
// demand" — by descending left-first and pruning every segment whose
// maxima cannot cover the demand, replacing the scheduler's O(nodes)
// linear scan with an O(log nodes) search on large pilots.
//
// The per-dimension maxima are a necessary condition only (the max cores
// and max GPUs in a segment may come from different nodes), so the search
// backtracks: a pruned descent is retried in the right sibling. Leaves are
// exact, which keeps the result identical to the linear first-fit.
//
// The tree is guarded by Scheduler.mu and mirrors the nodes' maintained free
// counters exactly: a grant allocates and a Scheduler.Release frees under
// that lock, each followed by a point refresh of its leaf. Nothing else
// touches the nodes' capacity, so the index never needs a re-sync; an
// allocation released behind the scheduler's back would stay invisible to
// it until that node's next grant or release.
type nodeIndex struct {
	nodes []*platform.Node
	size  int // number of leaves: smallest power of two ≥ len(nodes)
	cores []int
	gpus  []int
	mem   []float64
	// score is the min-leftover augmentation: each leaf holds the node's
	// weighted free capacity (w.Capacity of its free counters;
	// +Inf for padding leaves), each inner segment
	// the minimum over its children. For a fixed demand, least leftover =
	// least weighted free among fitting leaves, so findBest can prune any
	// segment whose minimum cannot beat the best leaf found so far and
	// typically descends a single root-to-leaf path instead of visiting
	// every fitting leaf.
	score []float64
	// w is the leftover exchange rate the score dimension folds on,
	// calibrated per pool from the node shape mix (deriveWeights).
	w weights
	// shapeOf maps each node index to its entry in shapes.
	shapeOf []int
	// shapes holds per-distinct-spec free-capacity aggregates, maintained
	// on every refresh so Scheduler.Snapshot is O(distinct shapes). Only
	// read or written under the scheduler lock.
	shapes []ShapeCapacity
	// specs lists the distinct node shapes, immutable after construction —
	// the lock-free satisfiability check reads this, never shapes.
	specs []platform.NodeSpec
}

func newNodeIndex(nodes []*platform.Node) *nodeIndex {
	size := 1
	for size < len(nodes) {
		size <<= 1
	}
	ix := &nodeIndex{
		nodes:   nodes,
		size:    size,
		cores:   make([]int, 2*size),
		gpus:    make([]int, 2*size),
		mem:     make([]float64, 2*size),
		score:   make([]float64, 2*size),
		shapeOf: make([]int, len(nodes)),
	}
	pos := make(map[platform.NodeSpec]int)
	for i, n := range nodes {
		sp := n.Spec()
		k, seen := pos[sp]
		if !seen {
			k = len(ix.shapes)
			pos[sp] = k
			ix.shapes = append(ix.shapes, ShapeCapacity{Spec: sp})
		}
		ix.shapes[k].Nodes++
		ix.shapeOf[i] = k
	}
	for _, sh := range ix.shapes {
		ix.specs = append(ix.specs, sh.Spec)
	}
	groups := make([]platform.NodeGroup, len(ix.shapes))
	for k, sh := range ix.shapes {
		groups[k] = platform.NodeGroup{Count: sh.Nodes, Spec: sh.Spec}
	}
	ix.w = deriveWeights(groups)
	ix.refreshAll()
	return ix
}

// WeightedCapacity folds a capacity (or demand) triple onto the global
// default scale (defaultWeights): cores + bestFitGPUWeight·gpus +
// bestFitMemWeight·memGB. Exported so cross-pool rankings — the
// fragmentation experiment's thin/fat split, the capacity-fit router's
// free-capacity comparison — share one exchange rate. Placement inside a
// pool uses the pool-calibrated weights instead (deriveWeights).
func WeightedCapacity(cores, gpus int, memGB float64) float64 {
	return defaultWeights.Capacity(cores, gpus, memGB)
}

// refresh re-reads one node's free counters into its leaf, folds the
// change into the node's per-shape aggregate, and bubbles the
// per-dimension maxima and the min score up.
func (ix *nodeIndex) refresh(i int) {
	leaf := ix.size + i
	sh := &ix.shapes[ix.shapeOf[i]]
	sh.FreeCores -= ix.cores[leaf]
	sh.FreeGPUs -= ix.gpus[leaf]
	sh.FreeMemGB -= ix.mem[leaf]
	ix.cores[leaf], ix.gpus[leaf], ix.mem[leaf] = ix.nodes[i].Free()
	sh.FreeCores += ix.cores[leaf]
	sh.FreeGPUs += ix.gpus[leaf]
	sh.FreeMemGB += ix.mem[leaf]
	ix.score[leaf] = ix.w.Capacity(ix.cores[leaf], ix.gpus[leaf], ix.mem[leaf])
	for p := leaf / 2; p >= 1; p /= 2 {
		l, r := 2*p, 2*p+1
		ix.cores[p] = max(ix.cores[l], ix.cores[r])
		ix.gpus[p] = max(ix.gpus[l], ix.gpus[r])
		ix.mem[p] = max(ix.mem[l], ix.mem[r])
		ix.score[p] = min(ix.score[l], ix.score[r])
	}
}

// refreshAll rebuilds the whole tree and the per-shape aggregates from
// the nodes' counters in O(n).
func (ix *nodeIndex) refreshAll() {
	for k := range ix.shapes {
		ix.shapes[k].FreeCores = 0
		ix.shapes[k].FreeGPUs = 0
		ix.shapes[k].FreeMemGB = 0
	}
	for i := range ix.nodes {
		leaf := ix.size + i
		ix.cores[leaf], ix.gpus[leaf], ix.mem[leaf] = ix.nodes[i].Free()
		ix.score[leaf] = ix.w.Capacity(ix.cores[leaf], ix.gpus[leaf], ix.mem[leaf])
		sh := &ix.shapes[ix.shapeOf[i]]
		sh.FreeCores += ix.cores[leaf]
		sh.FreeGPUs += ix.gpus[leaf]
		sh.FreeMemGB += ix.mem[leaf]
	}
	for i := len(ix.nodes); i < ix.size; i++ {
		leaf := ix.size + i
		ix.cores[leaf], ix.gpus[leaf], ix.mem[leaf] = 0, 0, 0
		// padding leaves must never look like attractive best-fit targets
		ix.score[leaf] = math.Inf(1)
	}
	for p := ix.size - 1; p >= 1; p-- {
		l, r := 2*p, 2*p+1
		ix.cores[p] = max(ix.cores[l], ix.cores[r])
		ix.gpus[p] = max(ix.gpus[l], ix.gpus[r])
		ix.mem[p] = max(ix.mem[l], ix.mem[r])
		ix.score[p] = min(ix.score[l], ix.score[r])
	}
}

// find returns the lowest node index whose leaf covers the demand, or -1.
func (ix *nodeIndex) find(cores, gpus int, memGB float64) int {
	if len(ix.nodes) == 0 {
		return -1
	}
	return ix.search(1, cores, gpus, memGB)
}

// search is a left-first DFS with segment pruning. When no segment's
// maxima are false positives it descends a single root-to-leaf path
// (O(log n)); false positives (per-dimension maxima from different nodes)
// cost extra sibling visits, degrading gracefully toward the linear scan
// it replaces.
func (ix *nodeIndex) search(p, cores, gpus int, memGB float64) int {
	if !ix.covers(p, cores, gpus, memGB) {
		return -1
	}
	if p >= ix.size { // leaf: counters are exact
		if i := p - ix.size; i < len(ix.nodes) {
			return i
		}
		return -1
	}
	if i := ix.search(2*p, cores, gpus, memGB); i >= 0 {
		return i
	}
	return ix.search(2*p+1, cores, gpus, memGB)
}

func (ix *nodeIndex) covers(p, cores, gpus int, memGB float64) bool {
	return ix.cores[p] >= cores && ix.gpus[p] >= gpus && ix.mem[p] >= memGB
}

// Default best-fit leftover weights: one GPU counts like 16 cores (the
// catalog's node shapes carry 8-16 cores per GPU) and 4 GB of memory like
// one core, so the score compares leftovers of different dimensions on
// one scale. Mixed pools recalibrate both rates from their actual shape
// mix (deriveWeights); these constants remain the single-shape and
// cross-pool scale via defaultWeights.
const (
	bestFitGPUWeight = 16
	bestFitMemWeight = 0.25
)

// findBest returns the fitting node index whose free capacity exceeds
// the demand by the least (weighted leftover cores + GPUs + memory), or
// -1. Ties break toward the lower index, so on homogeneous pools with
// equal residuals best-fit degenerates to first-fit.
//
// The search is a branch-and-bound over the min-leftover augmentation:
// for a fixed demand the leftover score of a leaf is its weighted free
// capacity minus a constant, so a segment whose min score cannot
// strictly beat the best fitting leaf found so far is pruned — as is,
// via the per-dimension maxima, any segment with no fitting leaf at
// all. Descending left-first makes the pruning inequality (≥) implement
// the lowest-index tie-break, and on pools where equal-score leaves
// dominate (homogeneous, or saturated to near-uniform residuals) the
// walk collapses to one root-to-leaf path: O(log n) against the
// exhaustive O(fitting leaves) scan it replaces, which
// TestFindBestMatchesExhaustiveOracle keeps as the reference.
func (ix *nodeIndex) findBest(cores, gpus int, memGB float64) int {
	if len(ix.nodes) == 0 {
		return -1
	}
	wDemand := ix.w.Capacity(cores, gpus, memGB)
	best, bestScore := -1, math.Inf(1)
	var walk func(p int)
	walk = func(p int) {
		if !ix.covers(p, cores, gpus, memGB) {
			return
		}
		if ix.score[p]-wDemand >= bestScore {
			return // no leaf below can strictly beat the current best
		}
		if p >= ix.size {
			if i := p - ix.size; i < len(ix.nodes) {
				// leaf counters are exact and the bound check passed:
				// this leaf fits and strictly improves on best
				best, bestScore = i, ix.score[p]-wDemand
			}
			return
		}
		walk(2 * p)
		walk(2*p + 1)
	}
	walk(1)
	return best
}

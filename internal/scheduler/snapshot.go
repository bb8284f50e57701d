package scheduler

import "repro/internal/platform"

// ShapeCapacity aggregates the free capacity of all nodes sharing one
// hardware shape inside a scheduler's pool. The aggregates are maintained
// incrementally by the capacity index (updated on the same point
// refreshes that keep the segment tree current), so reading them costs
// nothing beyond the lock.
type ShapeCapacity struct {
	// Spec is the node hardware shape.
	Spec platform.NodeSpec
	// Nodes is how many nodes of this shape the pool holds.
	Nodes int
	// FreeCores, FreeGPUs and FreeMemGB sum the currently free capacity
	// across those nodes.
	FreeCores int
	FreeGPUs  int
	FreeMemGB float64
}

// Snapshot is a point-in-time view of a scheduler's load and free
// capacity, taken under the scheduler lock in O(distinct shapes). It is
// the probe the session-level task router reads per routing decision:
// wait-pool depth for load ranking, shape specs for can-this-task-ever-run
// admission, and free-capacity aggregates plus single-node maxima for
// does-it-fit-now preference.
type Snapshot struct {
	// Waiting is the wait-pool depth (requests admitted but not granted).
	Waiting int
	// Scheduled counts grants so far.
	Scheduled int
	// Shapes holds per-shape free-capacity aggregates, one entry per
	// distinct node spec in the pool.
	Shapes []ShapeCapacity
	// MaxFreeCores, MaxFreeGPUs and MaxFreeMemGB are the per-dimension
	// maxima over single nodes (the capacity index's root segment). They
	// are a necessary fit condition only: the maxima may come from
	// different nodes.
	MaxFreeCores int
	MaxFreeGPUs  int
	MaxFreeMemGB float64
}

// Snapshot returns a consistent view of the scheduler's current load and
// free capacity. It is safe to call from any goroutine and cheap enough
// to take once per routing decision: the per-shape aggregates and the
// root maxima are maintained by the index, so the call copies O(distinct
// shapes) data under one lock acquisition.
//
// The result is cached against the scheduler's mutation generation: while
// nothing changed (no submit, grant, release or close), repeated
// calls return the cached value without taking the lock at all — the
// regime a session router is in while it places a whole submit batch
// against an idle or slow-moving pilot. Callers must treat the Shapes
// slice as read-only; consecutive unchanged snapshots share it.
func (s *Scheduler) Snapshot() Snapshot {
	g := s.gen.Load()
	if c := s.snapCache.Load(); c != nil && c.gen == g {
		return c.snap
	}
	s.mu.Lock()
	sn := Snapshot{
		Waiting:   s.waiting.len(),
		Scheduled: s.scheduled,
		Shapes:    append([]ShapeCapacity(nil), s.index.shapes...),
	}
	if len(s.index.nodes) > 0 {
		sn.MaxFreeCores = s.index.cores[1]
		sn.MaxFreeGPUs = s.index.gpus[1]
		sn.MaxFreeMemGB = s.index.mem[1]
	}
	// Pair the cache entry with the generation read under the same lock
	// hold that built it; storing under the lock keeps a concurrent
	// builder from overwriting a fresher entry with a staler one.
	s.snapCache.Store(&cachedSnapshot{gen: s.gen.Load(), snap: sn})
	s.mu.Unlock()
	return sn
}

// MayFitNow reports whether the demand passes the single-node free-maxima
// check. It is a necessary condition for immediate placement, not a
// sufficient one (the maxima may come from different nodes), so routers
// use it as a preference signal, never as an admission decision.
func (sn Snapshot) MayFitNow(cores, gpus int, memGB float64) bool {
	return sn.MaxFreeCores >= cores && sn.MaxFreeGPUs >= gpus && sn.MaxFreeMemGB >= memGB
}

// FreeWeighted folds the pool's total free capacity onto the global
// weighted scale (WeightedCapacity). Cross-pilot comparisons — the
// capacity-fit router ranking pilots against each other — need one common
// exchange rate, so this deliberately uses the global default weights,
// not the pool-calibrated ones best-fit placement optimizes internally.
func (sn Snapshot) FreeWeighted() float64 {
	var cores, gpus int
	var mem float64
	for _, sh := range sn.Shapes {
		cores += sh.FreeCores
		gpus += sh.FreeGPUs
		mem += sh.FreeMemGB
	}
	return WeightedCapacity(cores, gpus, mem)
}

// --- best-fit leftover weights ----------------------------------------------

// weights is the exchange rate best-fit leftovers are compared on: one
// GPU counts as GPU cores, one GB of memory as Mem cores. Each capacity
// index derives its own from the pool's shape mix (deriveWeights), so the
// least-leftover scale self-calibrates on unusual machines.
type weights struct {
	// GPU is the core-equivalent of one GPU.
	GPU float64
	// Mem is the core-equivalent of one GB of memory.
	Mem float64
}

// defaultWeights is the global scale (1 GPU = 16 cores, 4 GB = 1 core,
// matching the catalog's 8-16 cores per GPU). Single-shape pools keep it
// (see deriveWeights), and cross-pool comparisons always use it.
var defaultWeights = weights{GPU: bestFitGPUWeight, Mem: bestFitMemWeight}

// Capacity folds a capacity (or demand) triple onto w's scale.
func (w weights) Capacity(cores, gpus int, memGB float64) float64 {
	return float64(cores) + w.GPU*float64(gpus) + w.Mem*memGB
}

// deriveWeights calibrates best-fit leftover weights from a pool's actual
// shape mix: one GPU is worth the pool's observed cores-per-GPU ratio and
// one GB of memory its cores-per-GB ratio, each computed over the nodes
// that carry that dimension.
//
// The exchange rate only matters where leftovers from different shapes
// compete, so pools with fewer than two distinct shapes keep
// defaultWeights — on a homogeneous pool every node offers the same
// dimensions and recalibrating could only perturb the seed-pinned
// tie-breaks among partially drained nodes without improving any
// cross-shape decision (TestDeriveWeightsHomogeneousIdenticalChoices pins
// that homogeneous catalog platforms place identically under both).
func deriveWeights(groups []platform.NodeGroup) weights {
	distinct := make(map[platform.NodeSpec]bool, len(groups))
	for _, g := range groups {
		distinct[g.Spec] = true
	}
	if len(distinct) < 2 {
		return defaultWeights
	}
	w := defaultWeights
	var gpuCores, gpus, memCores int
	var mem float64
	for _, g := range groups {
		if g.Spec.GPUs > 0 {
			gpuCores += g.Count * g.Spec.Cores
			gpus += g.Count * g.Spec.GPUs
		}
		if g.Spec.MemGB > 0 {
			memCores += g.Count * g.Spec.Cores
			mem += float64(g.Count) * g.Spec.MemGB
		}
	}
	if gpus > 0 && gpuCores > 0 {
		w.GPU = float64(gpuCores) / float64(gpus)
	}
	if mem > 0 && memCores > 0 {
		w.Mem = float64(memCores) / mem
	}
	return w
}

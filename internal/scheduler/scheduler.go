// Package scheduler implements the agent-side continuous scheduler of the
// runtime. It binds tasks and service tasks to node resources (cores,
// GPUs, memory) within a pilot's allocation, honouring the priority
// relation the paper's extended Scheduler enacts between services and
// tasks: "We extended the existing Scheduler to enact priority relations
// between services and tasks" — in workflows, services often have to start
// before any computing task (§III).
//
// The wait pool is a priority queue: higher priority first, FIFO within a
// priority class. Placement retries happen continuously as resources are
// released. Unlike a naive first-fit, placement does not scan the node
// list: a segment-tree capacity index (see index.go) locates a fitting
// node in O(log nodes), and each scheduling kick drains every grantable
// request in one batch under a single lock acquisition.
//
// Which waiting request is granted next — and on which node — is decided
// by a pluggable Policy (see policy.go). The default, Strict, keeps the
// seed semantics: first-fit placement and hard head-of-line blocking.
// Backfill and BestFit trade bounded head starvation for utilization and
// lower fragmentation; select them per pilot via pilot.Config.SchedPolicy.
package scheduler

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/simtime"
)

// Request asks for resources for one entity.
type Request struct {
	// UID identifies the task or service.
	UID string
	// Cores, GPUs, MemGB are the per-node resource demand.
	Cores int
	GPUs  int
	MemGB float64
	// Priority orders the wait pool: higher first. The ServiceManager
	// submits services with a raised priority.
	Priority int
}

// Placement is a granted request.
type Placement struct {
	Req   Request
	Alloc *platform.Allocation
}

// PlaceFn receives each successful placement. It is called from a
// dedicated scheduler goroutine: implementations may block briefly but
// must not call back into the scheduler synchronously except Release.
type PlaceFn func(Placement)

// Scheduler performs continuous policy-driven scheduling over a fixed
// node set.
type Scheduler struct {
	nodes  []*platform.Node
	place  PlaceFn
	policy Policy
	clock  simtime.Clock
	// run is the clock's runnability accounting (nil off the virtual
	// clock): a wake of the loop holds a runner from its kick to the end
	// of the pass it starts.
	run *simtime.Virtual

	mu      sync.Mutex
	index   *nodeIndex
	nodeOf  map[*platform.Node]int
	waiting waitHeap
	seq     uint64
	closed  bool
	kick    chan struct{}

	scheduled int
	failed    int

	// batch (the grant buffer) and pool (the policy's window) are reused
	// across scheduling passes; only the scheduler goroutine touches them.
	batch []Placement
	pool  Pool

	// gen counts state mutations (submissions, grants, releases, close).
	// Snapshot caches its last result against it, so repeated
	// probes over an unchanged scheduler — a router ranking the same pilot
	// for every task of a submit batch — skip the lock and the shape-table
	// copy entirely. Bumped only while mu is held; read lock-free.
	gen       atomic.Uint64
	snapCache atomic.Pointer[cachedSnapshot]
}

// cachedSnapshot pairs a Snapshot with the generation it was built at.
type cachedSnapshot struct {
	gen  uint64
	snap Snapshot
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("scheduler: closed")

// ErrUnsatisfiable is returned when a request can never fit on any node.
type ErrUnsatisfiable struct{ Req Request }

// Error implements error.
func (e ErrUnsatisfiable) Error() string {
	return fmt.Sprintf("scheduler: request %s (%d cores, %d gpus, %.1f GB) exceeds every node",
		e.Req.UID, e.Req.Cores, e.Req.GPUs, e.Req.MemGB)
}

// Option configures a Scheduler at construction time.
type Option func(*Scheduler)

// WithPolicy selects the placement policy (default Strict). The policy
// instance must be exclusive to this scheduler: backfill policies keep
// per-head starvation state.
func WithPolicy(p Policy) Option {
	return func(s *Scheduler) {
		if p != nil {
			s.policy = p
		}
	}
}

// WithClock sets the clock backing the backfill starvation time bound and
// Pool.Now (default: the wall clock). Pilots pass their simulation clock
// so the T bound is measured in simulated time.
func WithClock(c simtime.Clock) Option {
	return func(s *Scheduler) {
		if c != nil {
			s.clock = c
		}
	}
}

// New starts a scheduler over nodes, delivering placements to place.
// Without options it schedules with the Strict policy on the wall clock.
func New(nodes []*platform.Node, place PlaceFn, opts ...Option) *Scheduler {
	s := &Scheduler{
		nodes:   nodes,
		place:   place,
		policy:  strictPolicy{},
		clock:   simtime.NewReal(),
		index:   newNodeIndex(nodes),
		nodeOf:  make(map[*platform.Node]int, len(nodes)),
		waiting: newWaitHeap(),
		kick:    make(chan struct{}, 1),
	}
	s.pool.s = s
	for _, opt := range opts {
		opt(s)
	}
	s.run = simtime.RunnersOf(s.clock)
	for i, n := range nodes {
		s.nodeOf[n] = i
	}
	go s.loop()
	return s
}

// Submit enqueues a request. It returns ErrUnsatisfiable immediately when
// no node in the pilot could ever satisfy the request.
func (s *Scheduler) Submit(req Request) error {
	if !s.satisfiable(req) {
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		return ErrUnsatisfiable{Req: req}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.seq++
	s.waiting.push(waitItem{req: req, seq: s.seq})
	s.gen.Add(1)
	s.pokeLocked()
	s.mu.Unlock()
	return nil
}

// Generation returns the scheduler's mutation counter. Two equal reads
// with no mutation in between guarantee Snapshot returns identical data,
// which is what lets callers batch routing decisions over one probe.
func (s *Scheduler) Generation() uint64 { return s.gen.Load() }

// satisfiable reports whether some node's total capacity covers req.
// Negative demands are unsatisfiable: Node.TryAlloc rejects them on every
// node, so admitting one would wedge the wait-pool head forever. The
// check is O(distinct shapes) over the index's immutable spec list — no
// lock needed.
func (s *Scheduler) satisfiable(req Request) bool {
	if req.Cores < 0 || req.GPUs < 0 || req.MemGB < 0 {
		return false
	}
	for _, sp := range s.index.specs {
		if sp.Covers(req.Cores, req.GPUs, req.MemGB) {
			return true
		}
	}
	return false
}

// Release returns an allocation the scheduler granted to its node and, when
// a request waits for capacity, re-kicks scheduling. It is the only way a
// grant's capacity comes back: the node and its index leaf change under one
// hold of s.mu, so no pass ever sees one without the other. The look at the
// wait pool and Submit's push are under the same lock, and Submit kicks for
// itself: a request that arrives after the look finds the capacity already
// returned. A closed scheduler is not kicked.
func (s *Scheduler) Release(a *platform.Allocation) {
	s.mu.Lock()
	a.Release()
	if i, ok := s.nodeOf[a.Node()]; ok {
		s.index.refresh(i)
	}
	s.gen.Add(1)
	if !s.closed && s.waiting.len() > 0 {
		s.pokeLocked()
	}
	s.mu.Unlock()
}

// Policy returns the scheduler's placement policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Waiting returns the wait-pool depth.
func (s *Scheduler) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting.len()
}

// Scheduled returns the count of granted placements.
func (s *Scheduler) Scheduled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduled
}

// Close stops the scheduler. Waiting requests are dropped.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.gen.Add(1)
	close(s.kick) // under s.mu, as every kick is: none comes after
	s.mu.Unlock()
}

// pokeLocked wakes the loop. On a virtual clock the wake
// carries a runner, issued before the kick: a releasing task that exits must
// not let the clock jump past the grant it just made possible. A kick already
// pending carries one. Callers hold s.mu and have seen the scheduler open, so
// every kick sent is one the loop receives.
func (s *Scheduler) pokeLocked() {
	s.run.AddRunner()
	select {
	case s.kick <- struct{}{}:
	default:
		s.run.DoneRunner()
	}
}

// loop runs one scheduling pass per kick and returns the kick's runner when
// the pass ends, until Close.
func (s *Scheduler) loop() {
	for range s.kick {
		s.schedule()
		s.run.DoneRunner()
	}
}

// schedule drains as much of the wait pool as the policy will grant. What
// "grantable" means is the policy's call: Strict stops at the first
// blocked head (the readiness guarantee of §III outweighs utilization),
// Backfill/BestFit keep granting fitting lower-priority work within the
// starvation bound. The ablation benchmark BenchmarkAblationBackfill
// quantifies the trade-off.
//
// Each pass collects every grantable request under one lock acquisition
// and delivers the whole batch after unlocking, so PlaceFn work (and the
// Releases it may perform) never holds up grant decisions.
func (s *Scheduler) schedule() {
	for {
		s.mu.Lock()
		s.batch = s.batch[:0]
		for !s.closed && s.waiting.len() > 0 {
			pos, alloc := s.policy.Grant(&s.pool)
			if alloc == nil {
				break // nothing grantable: wait for a release
			}
			it := s.waiting.removeAt(pos)
			s.scheduled++
			s.batch = append(s.batch, Placement{Req: it.req, Alloc: alloc})
		}
		if len(s.batch) == 0 {
			s.mu.Unlock()
			return
		}
		// Only a grant changes what Snapshot reads: a pass that grants
		// nothing leaves the pool and the index as it found them.
		s.gen.Add(1)
		s.mu.Unlock()
		for _, p := range s.batch {
			s.place(p)
		}
	}
}

// tryPlace attempts placement of req via the capacity index: first-fit
// (lowest fitting node index) by default, least-leftover when bestFit is
// set. The index is exact, so a node it finds takes the allocation. Callers
// hold s.mu.
func (s *Scheduler) tryPlace(req Request, bestFit bool) *platform.Allocation {
	find := s.index.find
	if bestFit {
		find = s.index.findBest
	}
	i := find(req.Cores, req.GPUs, req.MemGB)
	if i < 0 {
		return nil
	}
	a := s.nodes[i].TryAlloc(req.Cores, req.GPUs, req.MemGB)
	s.index.refresh(i)
	return a
}

// fits reports whether some node's free capacity covers req. The index
// answers exactly: every grant and every Release refreshes its leaf under
// s.mu, which callers hold.
func (s *Scheduler) fits(req Request) bool {
	return s.index.find(req.Cores, req.GPUs, req.MemGB) >= 0
}

// --- wait pool --------------------------------------------------------------

type waitItem struct {
	req Request
	seq uint64
}

// waitHeap is the scheduler's wait pool: a hand-rolled binary heap
// ordered by (priority desc, seq asc) — avoiding container/heap keeps
// push/pop free of interface boxing — augmented with a per-priority
// bucket index for the backfill policies' highest-priority-fitting
// query. The heap answers "who is the strict head" in O(1); the buckets
// enumerate the pool in exact strict order without sorting, so the
// backfill scan stops at its first fit instead of testing every waiting
// request (the pre-index scan was O(waiting · log nodes) per grant,
// which ROADMAP carried as a deep-pool perf debt since PR 2).
type waitHeap struct {
	items []waitItem
	// pos maps a request's seq to its current items position, maintained
	// across every sift swap, so a bucket hit translates to a pool
	// position in O(1).
	pos map[uint64]int
	// prios lists the distinct priorities present, descending; buckets
	// holds each priority's waiting seqs in ascending (submission) order.
	// Walking prios outer, buckets inner therefore visits the pool in
	// exactly the strict (priority desc, seq asc) grant order.
	prios   []int
	buckets map[int][]uint64
}

func newWaitHeap() waitHeap {
	return waitHeap{pos: make(map[uint64]int), buckets: make(map[int][]uint64)}
}

func (h *waitHeap) len() int { return len(h.items) }

func (h *waitHeap) less(i, j int) bool {
	if h.items[i].req.Priority != h.items[j].req.Priority {
		return h.items[i].req.Priority > h.items[j].req.Priority
	}
	return h.items[i].seq < h.items[j].seq
}

func (h *waitHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].seq] = i
	h.pos[h.items[j].seq] = j
}

func (h *waitHeap) push(it waitItem) {
	h.items = append(h.items, it)
	h.pos[it.seq] = len(h.items) - 1
	h.siftUp(len(h.items) - 1)
	h.bucketInsert(it.req.Priority, it.seq)
}

// removeAt deletes and returns the item at backing-array position pos
// (0 = head). Backfill policies grant from arbitrary positions, so the
// vacated slot's replacement may need to move either direction.
func (h *waitHeap) removeAt(pos int) waitItem {
	it := h.items[pos]
	last := len(h.items) - 1
	h.items[pos] = h.items[last]
	h.items[last] = waitItem{} // release references held by the vacated slot
	h.items = h.items[:last]
	delete(h.pos, it.seq)
	if pos < last {
		h.pos[h.items[pos].seq] = pos
		h.siftDown(pos)
		h.siftUp(pos)
	}
	h.bucketRemove(it.req.Priority, it.seq)
	return it
}

func (h *waitHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *waitHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		first := i
		if l < len(h.items) && h.less(l, first) {
			first = l
		}
		if r < len(h.items) && h.less(r, first) {
			first = r
		}
		if first == i {
			return
		}
		h.swap(i, first)
		i = first
	}
}

// bucketInsert files seq under prio, keeping the bucket ascending and
// the priority list descending. Seqs usually arrive in increasing order
// (fresh submissions), making the common insert an append; the binary
// search covers re-pushes of old seqs.
func (h *waitHeap) bucketInsert(prio int, seq uint64) {
	b := h.buckets[prio]
	if len(b) == 0 {
		i := sort.Search(len(h.prios), func(i int) bool { return h.prios[i] <= prio })
		h.prios = append(h.prios, 0)
		copy(h.prios[i+1:], h.prios[i:])
		h.prios[i] = prio
	}
	i := sort.Search(len(b), func(i int) bool { return b[i] >= seq })
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = seq
	h.buckets[prio] = b
}

// bucketRemove unfiles seq from prio's bucket, dropping the priority
// from the walk list when its bucket empties.
func (h *waitHeap) bucketRemove(prio int, seq uint64) {
	b := h.buckets[prio]
	i := sort.Search(len(b), func(i int) bool { return b[i] >= seq })
	if i >= len(b) || b[i] != seq {
		return // not present: tolerated for robustness, never expected
	}
	b = append(b[:i], b[i+1:]...)
	if len(b) == 0 {
		delete(h.buckets, prio)
		j := sort.Search(len(h.prios), func(j int) bool { return h.prios[j] <= prio })
		h.prios = append(h.prios[:j], h.prios[j+1:]...)
		return
	}
	h.buckets[prio] = b
}

// firstFit walks the pool in strict (priority desc, seq asc) order —
// skipping the head, which the caller already failed to place — and
// returns the pool position of the first request fits accepts, or -1.
// This is exactly the argmin under Before over all fitting non-head
// positions that the backfill policies need, but it stops at the first
// fit instead of testing the whole pool.
func (h *waitHeap) firstFit(fits func(pos int) bool) int {
	if len(h.items) == 0 {
		return -1
	}
	headSeq := h.items[0].seq
	for _, prio := range h.prios {
		for _, seq := range h.buckets[prio] {
			if seq == headSeq {
				continue
			}
			if i := h.pos[seq]; fits(i) {
				return i
			}
		}
	}
	return -1
}

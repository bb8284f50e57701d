package scheduler

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/simtime"
)

// newBenchScheduler builds a scheduler over nodes WITHOUT starting the
// scheduling loop, so a benchmark can drive policy.Grant by hand over a
// frozen wait pool.
func newBenchScheduler(nodes []*platform.Node, pol Policy) *Scheduler {
	s := &Scheduler{
		nodes:   nodes,
		policy:  pol,
		waiting: newWaitHeap(),
		clock:   simtime.NewReal(),
		index:   newNodeIndex(nodes),
		nodeOf:  make(map[*platform.Node]int, len(nodes)),
		kick:    make(chan struct{}, 1),
	}
	for i, n := range nodes {
		s.nodeOf[n] = i
	}
	return s
}

// BenchmarkBackfillGrantDeepPool measures one backfill Grant against a
// deep wait pool whose head is blocked: a single node with one core
// free, a blocked 8-core head, `depth` non-fitting 2-core fillers at low
// priorities, and exactly one fitting 1-core request at a high priority.
// The grant returns that request every iteration (it is re-pushed after
// an immediate release, keeping the pool in steady state), so the
// benchmark isolates the highest-priority-fitting query the backfill
// policies run per blocked-head grant.
func BenchmarkBackfillGrantDeepPool(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			node := platform.NewNode("n0", platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 64})
			pol := Backfill(BackfillConfig{MaxBypass: -1, MaxDelay: -1})
			s := newBenchScheduler([]*platform.Node{node}, pol)

			// occupy 7 of 8 cores so the 8-core head is blocked and the
			// 2-core fillers do not fit, while a 1-core request does
			held := node.TryAlloc(7, 0, 7)
			if held == nil {
				b.Fatal("setup alloc failed")
			}
			s.index.refresh(0)

			push := func(prio, cores int) {
				s.seq++
				s.waiting.push(waitItem{req: Request{
					UID: fmt.Sprintf("r%d", s.seq), Cores: cores, MemGB: 1, Priority: prio,
				}, seq: s.seq})
			}
			push(100, 8) // the blocked head
			for i := 0; i < depth; i++ {
				push(10+i%4*10, 2) // non-fitting fillers, prio 10..40
			}
			push(90, 1) // the one fitting request, first in strict order after the head

			pool := Pool{s: s}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pos, alloc := pol.Grant(&pool)
				if alloc == nil {
					b.Fatal("grant blocked")
				}
				it := s.waiting.removeAt(pos)
				s.Release(alloc)
				s.waiting.push(it) // same seq: the pool state replays exactly
			}
		})
	}
}

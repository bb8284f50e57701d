package scheduler

// Scheduler invariant suite: randomized property tests over fuzzed
// heterogeneous pools and request streams, run against every built-in
// policy. The seed's tests only ever generated homogeneous pools; these
// pin the safety properties that must hold regardless of node-shape mix
// or placement policy:
//
//   - admission: a request some node shape could ever satisfy is
//     accepted (it may wait), an impossible one is rejected;
//   - no over-commit: at quiescence every node's free counters equal
//     its spec minus exactly the live placements on it (which also
//     proves every release restored exactly what was granted — any
//     asymmetry would accumulate as drift and fail a later round);
//   - conservation: accepted == Scheduled() + Waiting() at quiescence,
//     and after draining, every node returns to idle.

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// invariantShapes is the node-shape alphabet the fuzzer draws pools
// from: spans the catalog's extremes (hetero fat, Delta, hetero thin,
// and a small GPU blade).
var invariantShapes = []platform.NodeSpec{
	{Cores: 128, GPUs: 16, MemGB: 1024},
	{Cores: 64, GPUs: 4, MemGB: 256},
	{Cores: 16, GPUs: 0, MemGB: 64},
	{Cores: 8, GPUs: 2, MemGB: 32},
}

// quiesce waits until every pass a Submit or Release kicked has ended (the
// scheduler runs on clock, which the test goroutine holds), checks that every
// accepted request is then either granted and delivered or waiting, and
// returns a snapshot of all placements.
func quiesce(t *testing.T, clock *simtime.Virtual, c *collector, s *Scheduler, accepted int) []Placement {
	t.Helper()
	clock.Settle()
	g, w := s.Scheduled(), s.Waiting()
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.placed); n != g || g+w != accepted {
		t.Fatalf("scheduler at rest with %d granted, %d waiting, %d delivered, %d accepted", g, w, n, accepted)
	}
	return append([]Placement{}, c.placed...)
}

// checkAccounting asserts that every node's free counters equal its spec
// minus the demands of the live placements on it. Call at quiescence
// only (in-flight grants would show as transient mismatches).
func checkAccounting(t *testing.T, nodes []*platform.Node, live map[*Placement]bool) {
	t.Helper()
	type usage struct {
		cores, gpus int
		mem         float64
	}
	used := make(map[string]usage, len(nodes))
	for p := range live {
		u := used[p.Alloc.Node().Name()]
		u.cores += len(p.Alloc.Cores)
		u.gpus += len(p.Alloc.GPUs)
		u.mem += p.Alloc.MemGB
		used[p.Alloc.Node().Name()] = u
	}
	for _, n := range nodes {
		sp := n.Spec()
		u := used[n.Name()]
		fc, fg, fm := n.Free()
		if u.cores > sp.Cores || u.gpus > sp.GPUs || u.mem > sp.MemGB {
			t.Fatalf("node %s over-committed: %d/%d cores, %d/%d gpus, %.1f/%.1f GB",
				n.Name(), u.cores, sp.Cores, u.gpus, sp.GPUs, u.mem, sp.MemGB)
		}
		if fc != sp.Cores-u.cores || fg != sp.GPUs-u.gpus || fm != sp.MemGB-u.mem {
			t.Fatalf("node %s accounting drift: free %d/%d/%.1f, want %d/%d/%.1f",
				n.Name(), fc, fg, fm, sp.Cores-u.cores, sp.GPUs-u.gpus, sp.MemGB-u.mem)
		}
	}
}

// TestSchedulerInvariants fuzzes heterogeneous pools and request streams
// across all three built-in policies.
func TestSchedulerInvariants(t *testing.T) {
	policies := []struct {
		name string
		mk   func(src *rng.Source) Policy
	}{
		{"strict", func(*rng.Source) Policy { return strictPolicy{} }},
		{"backfill", func(src *rng.Source) Policy {
			return Backfill(BackfillConfig{MaxBypass: 1 + src.Intn(32), MaxDelay: -1})
		}},
		{"best-fit", func(src *rng.Source) Policy {
			return BestFit(BackfillConfig{MaxBypass: -1, MaxDelay: -1})
		}},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < 5; trial++ {
				src := rng.New(uint64(4000 + trial))
				var nodes []*platform.Node
				n := 4 + src.Intn(13)
				for i := 0; i < n; i++ {
					sp := invariantShapes[src.Intn(len(invariantShapes))]
					nodes = append(nodes, platform.NewNode(fmt.Sprintf("inv-%02d-%02d", trial, i), sp))
				}
				// the largest per-dimension capacities any single shape in
				// this pool offers, for the admission oracle
				satisfiable := func(req Request) bool {
					for _, m := range nodes {
						sp := m.Spec()
						if sp.Cores >= req.Cores && sp.GPUs >= req.GPUs && sp.MemGB >= req.MemGB {
							return true
						}
					}
					return false
				}

				clock := heldClock(t)
				c := newCollector()
				s := New(nodes, c.fn, WithPolicy(pol.mk(src)), WithClock(clock))
				accepted := 0
				live := make(map[*Placement]bool)
				consumed := 0 // prefix of c.placed already folded into live

				foldGrants := func(placed []Placement) {
					for ; consumed < len(placed); consumed++ {
						cp := placed[consumed]
						live[&cp] = true
					}
				}

				for round := 0; round < 3; round++ {
					// submission burst: random demands, some impossible
					for i := 0; i < 12+src.Intn(16); i++ {
						req := Request{
							UID:      fmt.Sprintf("r%02d-%03d", round, i),
							Cores:    src.Intn(150),
							GPUs:     src.Intn(20),
							MemGB:    float64(src.Intn(1100)),
							Priority: src.Intn(3) * 50,
						}
						err := s.Submit(req)
						if satisfiable(req) != (err == nil) {
							t.Fatalf("trial %d: Submit(%+v) = %v, satisfiable = %v",
								trial, req, err, satisfiable(req))
						}
						if err == nil {
							accepted++
						}
					}
					foldGrants(quiesce(t, clock, c, s, accepted))
					checkAccounting(t, nodes, live)
					if got := s.Scheduled() + s.Waiting(); got != accepted {
						t.Fatalf("trial %d round %d: Scheduled+Waiting = %d, accepted = %d",
							trial, round, got, accepted)
					}
					// release a random subset; freed capacity re-kicks grants
					for p := range live {
						if src.Intn(2) == 0 {
							s.Release(p.Alloc)
							delete(live, p)
						}
					}
					foldGrants(quiesce(t, clock, c, s, accepted))
					checkAccounting(t, nodes, live)
				}

				// drain: keep releasing everything granted until the wait
				// pool empties (after a full release the pool is idle, so a
				// satisfiable head always fits — the drain terminates)
				for i := 0; ; i++ {
					for p := range live {
						s.Release(p.Alloc)
						delete(live, p)
					}
					foldGrants(quiesce(t, clock, c, s, accepted))
					if len(live) == 0 && s.Waiting() == 0 {
						break
					}
					if i > accepted {
						t.Fatalf("trial %d: drain did not converge (%d live, %d waiting)",
							trial, len(live), s.Waiting())
					}
				}
				if s.Scheduled() != accepted {
					t.Fatalf("trial %d: drained Scheduled = %d, accepted = %d",
						trial, s.Scheduled(), accepted)
				}
				for _, m := range nodes {
					sp := m.Spec()
					if fc, fg, fm := m.Free(); fc != sp.Cores || fg != sp.GPUs || fm != sp.MemGB {
						t.Fatalf("trial %d: node %s not idle after drain (%d/%d/%.1f free)",
							trial, m.Name(), fc, fg, fm)
					}
				}
				s.Close()
			}
		})
	}
}

// TestSchedulerMixedPoolLargestShapeBusyWaits is the admission
// regression for mixed pools: a request that fits only the largest node
// shape, submitted while every such node is busy, must be *admitted and
// wait* (capacity will return), must not be rejected as unsatisfiable,
// and — under backfill — must not wedge traffic that fits the smaller
// shapes. A request exceeding every shape is still rejected outright.
func TestSchedulerMixedPoolLargestShapeBusyWaits(t *testing.T) {
	mixed := []*platform.Node{
		platform.NewNode("fat", platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 256}),
		platform.NewNode("thin-0", platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}),
		platform.NewNode("thin-1", platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}),
		platform.NewNode("thin-2", platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}),
	}
	c := newCollector()
	s := New(mixed, c.fn, WithPolicy(Backfill(BackfillConfig{MaxBypass: -1, MaxDelay: -1})))
	defer s.Close()

	// occupy the only fat node
	if err := s.Submit(Request{UID: "fat-filler", Cores: 64, GPUs: 8}); err != nil {
		t.Fatal(err)
	}
	filler := c.waitN(t, 1)[0]
	if filler.Alloc.Node().Name() != "fat" {
		t.Fatalf("filler placed on %s", filler.Alloc.Node().Name())
	}

	// fits only the fat shape (thin nodes have 8 cores, 0 GPUs): with the
	// fat node busy this must wait, not be rejected
	if err := s.Submit(Request{UID: "fat-only", Cores: 32, GPUs: 4, Priority: 100}); err != nil {
		t.Fatalf("fat-only request rejected while the fat node was busy: %v", err)
	}
	// beyond every shape: still rejected
	if err := s.Submit(Request{UID: "impossible", Cores: 65}); err == nil {
		t.Fatal("request exceeding every shape was admitted")
	}

	// smaller-shape traffic keeps flowing around the blocked head
	for i := 0; i < 3; i++ {
		if err := s.Submit(Request{UID: fmt.Sprintf("thin-task-%d", i), Cores: 8}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.waitN(t, 4)
	for _, p := range got[1:] {
		if p.Req.UID == "fat-only" {
			t.Fatal("fat-only granted while no fat node was free")
		}
	}
	if w := s.Waiting(); w != 1 {
		t.Fatalf("Waiting = %d, want 1 (the fat-only head)", w)
	}

	// capacity returns → the waiting head is granted on the fat node
	s.Release(filler.Alloc)
	got = c.waitN(t, 5)
	if got[4].Req.UID != "fat-only" || got[4].Alloc.Node().Name() != "fat" {
		t.Fatalf("post-release grant = %s on %s, want fat-only on fat",
			got[4].Req.UID, got[4].Alloc.Node().Name())
	}
}

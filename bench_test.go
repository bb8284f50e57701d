// Package repro's root benchmark suite: Table I's three LUCID pipelines
// end to end (BenchmarkTable1UseCases), and the ablations that run below
// the experiment registry — balancer picks, scheduler priority, backfill,
// fragmentation and the load-harness catalog. The paper's other tables and
// figures are `rpexp -exp <name>`, pinned byte for byte by the goldens
// under internal/experiments/testdata (TestGoldenSections).
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadbal"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/usecases"
	"repro/internal/workflow"
)

// --- Table I -----------------------------------------------------------------

// BenchmarkTable1UseCases executes a reduced-size instance of each LUCID
// pipeline end to end, reporting simulated makespans.
func BenchmarkTable1UseCases(b *testing.B) {
	cases := []struct {
		name  string
		build func(src *rng.Source, coll *metrics.Collector) *workflow.Pipeline
	}{
		{"cell-painting", func(src *rng.Source, _ *metrics.Collector) *workflow.Pipeline {
			return usecases.CellPainting(usecases.CellPaintingConfig{
				DatasetBytes: 8 << 30, Shards: 4, HPOTrials: 4,
			}, src)
		}},
		{"signature-detection", func(src *rng.Source, coll *metrics.Collector) *workflow.Pipeline {
			return usecases.Signature(usecases.SignatureConfig{
				Samples: 5, UseLLM: true, LLMQueries: 2, Collector: coll,
			}, src)
		}},
		{"uncertainty-quantification", func(_ *rng.Source, _ *metrics.Collector) *workflow.Pipeline {
			return usecases.UQ(usecases.UQConfig{Seeds: 2})
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				sess, err := core.NewSession(core.SessionConfig{
					Seed: uint64(i), Clock: simtime.NewScaled(500000, core.DefaultOrigin),
				})
				if err != nil {
					b.Fatal(err)
				}
				p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
				if err != nil {
					b.Fatal(err)
				}
				runner, err := workflow.NewRunner(sess, p)
				if err != nil {
					b.Fatal(err)
				}
				coll := metrics.NewCollector()
				rep, err := runner.Run(context.Background(), c.build(rng.New(uint64(i)), coll))
				if err != nil {
					b.Fatal(err)
				}
				sim += rep.Duration()
				sess.Close()
			}
			b.ReportMetric(sim.Seconds()/float64(b.N), "sim-makespan-s")
		})
	}
}

// skewedView is a static loadbal.LoadView with a skewed depth per
// candidate, every report maximally fresh.
type skewedView []int

func (v skewedView) Len() int                { return len(v) }
func (v skewedView) Load(i int) (int, int64) { return v[i], 1 }

// BenchmarkAblationLoadBalancing compares round-robin (the paper's
// rudimentary strategy) against power-of-two-choices and full-scan
// least-loaded picks on a skewed candidate set.
func BenchmarkAblationLoadBalancing(b *testing.B) {
	view := make(skewedView, 8)
	for i := range view {
		view[i] = i * 3 // skewed initial load
	}
	for _, name := range []string{"round-robin", "p2c", "least-loaded"} {
		b.Run(name, func(b *testing.B) {
			picker, err := loadbal.PickerByName(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			imbalance := 0
			for i := 0; i < b.N; i++ {
				pick := picker.PickIndex(view, 0)
				view[pick]++
				// track max-min spread as the imbalance signal
				min, max := 1<<30, 0
				for _, d := range view {
					if d < min {
						min = d
					}
					if d > max {
						max = d
					}
				}
				view[pick]-- // undo: keep the scenario static per op
				imbalance += max - min
			}
			b.ReportMetric(float64(imbalance)/float64(b.N), "spread")
		})
	}
}

// BenchmarkAblationSchedulerPriority measures how long a service waits for
// placement on a saturated pilot with and without the service-priority
// extension (paper §III: services must start before compute tasks).
func BenchmarkAblationSchedulerPriority(b *testing.B) {
	for _, priority := range []int{0, spec.ServicePriority} {
		name := "fifo"
		if priority > 0 {
			name = "service-priority"
		}
		b.Run(name, func(b *testing.B) {
			var waited int64
			for i := 0; i < b.N; i++ {
				plat := platform.New("bench", 1, platform.NodeSpec{Cores: 4, GPUs: 0, MemGB: 64})
				placed := make(chan scheduler.Placement, 256)
				sched := scheduler.New(plat.Nodes(), func(p scheduler.Placement) { placed <- p })
				// fill the node, queue 32 tasks, then the service
				if err := sched.Submit(scheduler.Request{UID: "filler", Cores: 4}); err != nil {
					b.Fatal(err)
				}
				filler := <-placed
				for t := 0; t < 32; t++ {
					_ = sched.Submit(scheduler.Request{UID: fmt.Sprintf("task-%d", t), Cores: 4})
				}
				_ = sched.Submit(scheduler.Request{UID: "service", Cores: 4, Priority: priority})
				// release resources one at a time until the service places
				sched.Release(filler.Alloc)
				grants := 0
				for p := range placed {
					grants++
					if p.Req.UID == "service" {
						break
					}
					sched.Release(p.Alloc)
				}
				waited += int64(grants)
				sched.Close()
			}
			b.ReportMetric(float64(waited)/float64(b.N), "grants-before-service")
		})
	}
}

// strictPolicy builds the default policy by its name, as a pilot does.
func strictPolicy() scheduler.Policy {
	p, err := scheduler.PolicyByName("strict")
	if err != nil {
		panic(err)
	}
	return p
}

// BenchmarkAblationBackfill quantifies the strict-vs-backfill trade-off
// on the regime the paper's continuous scheduler cares about: a
// saturated 1024-node pilot (every node down to its last core) with a
// mixed workload — one large high-priority request that fits no node
// blocking the head, and a stream of small one-core tasks behind it.
// Strict priority grants zero small tasks until the blocker clears;
// capacity-aware backfill grants them from the capacity the head cannot
// use, bounded by the configured starvation limit K. The
// "smalls-before-big" metric is the per-policy bypass count actually
// observed; ns/op is the cost of the full scenario (setup + 258 grants).
func BenchmarkAblationBackfill(b *testing.B) {
	const nNodes, nSmall = 1024, 256
	unbounded := scheduler.BackfillConfig{MaxBypass: -1, MaxDelay: -1}
	countOnly := scheduler.BackfillConfig{MaxDelay: -1} // K at its default, 16
	policies := []struct {
		name string
		mk   func() scheduler.Policy
		// bypasses is the deterministic number of smalls granted while
		// the head is blocked: 0 (strict), K, or all of them.
		bypasses int
	}{
		{"strict", strictPolicy, 0},
		{"backfill-k16", func() scheduler.Policy { return scheduler.Backfill(countOnly) }, 16},
		{"backfill-unbounded", func() scheduler.Policy { return scheduler.Backfill(unbounded) }, nSmall},
		{"best-fit-unbounded", func() scheduler.Policy { return scheduler.BestFit(unbounded) }, nSmall},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var beforeBig int64
			for i := 0; i < b.N; i++ {
				plat := platform.New("bench", nNodes, platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 256})
				nodes := plat.Nodes()
				// Saturate: every node but node 0 keeps exactly one core.
				for _, n := range nodes[1:] {
					if a := n.TryAlloc(63, 8, 224); a == nil {
						b.Fatal("saturation alloc failed")
					}
				}
				placed := make(chan scheduler.Placement, nSmall+8)
				sched := scheduler.New(nodes, func(p scheduler.Placement) { placed <- p },
					scheduler.WithPolicy(pol.mk()))
				// hold takes the one whole free node; big then fits nowhere.
				if err := sched.Submit(scheduler.Request{UID: "hold", Cores: 64}); err != nil {
					b.Fatal(err)
				}
				hold := <-placed
				_ = sched.Submit(scheduler.Request{UID: "big", Cores: 64, Priority: 100})
				for t := 0; t < nSmall; t++ {
					_ = sched.Submit(scheduler.Request{UID: "small", Cores: 1})
				}
				// The policy's bypass budget drains deterministically (every
				// small fits one of the 1023 single-core slots).
				for g := 0; g < pol.bypasses; g++ {
					<-placed
				}
				// Unblock the head; big must clear before the rest.
				sched.Release(hold.Alloc)
				order := 0
				bigAt := -1
				for g := pol.bypasses; g < nSmall+1; g++ {
					p := <-placed
					if p.Req.UID == "big" {
						bigAt = pol.bypasses + order
						sched.Release(p.Alloc) // frees node 0 for leftover smalls
					}
					order++
				}
				if bigAt < 0 {
					b.Fatal("big never granted")
				}
				beforeBig += int64(bigAt)
				sched.Close()
			}
			b.ReportMetric(float64(beforeBig)/float64(b.N), "smalls-before-big")
		})
	}
}

// BenchmarkAblationFragmentation quantifies first-fit vs best-fit
// placement on a saturated mixed 1024-node pool — the heterogeneous
// regime best-fit exists for. The pool is 64 fat nodes (128c/16g) in
// front of 960 thin nodes (16c, no GPUs); the workload is 512 thin-sized
// smalls (16 cores each) followed by 64 whole-fat-node larges
// (128c/16g), no releases. First-fit lands the smalls on the lowest
// node indexes — the fat partition — consuming exactly all 64 fat
// nodes' cores (8 smalls each), so zero larges fit; best-fit packs
// every small onto a thin node (least weighted leftover) and grants all
// 64 larges. The "larges-granted" metric is that count; ns/op is the
// full scenario (pool build + all grants), so it also reflects the
// augmented findBest's per-grant cost at 1024 nodes.
func BenchmarkAblationFragmentation(b *testing.B) {
	const nFat, nThin, nSmall, nLarge = 64, 960, 512, 64
	fat := platform.NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}
	thin := platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
	policies := []struct {
		name string
		mk   func() scheduler.Policy
		// deterministic outcome: total grants and larges among them
		larges int
	}{
		{"first-fit", strictPolicy, 0},
		{"best-fit", func() scheduler.Policy {
			return scheduler.BestFit(scheduler.BackfillConfig{MaxBypass: -1, MaxDelay: -1})
		}, nLarge},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var largesGranted int64
			for i := 0; i < b.N; i++ {
				plat := platform.NewMixed("bench", []platform.NodeGroup{
					{Count: nFat, Spec: fat}, {Count: nThin, Spec: thin},
				})
				placed := make(chan scheduler.Placement, nSmall+nLarge)
				sched := scheduler.New(plat.Nodes(), func(p scheduler.Placement) { placed <- p },
					scheduler.WithPolicy(pol.mk()))
				for t := 0; t < nSmall; t++ {
					if err := sched.Submit(scheduler.Request{UID: "small", Cores: thin.Cores}); err != nil {
						b.Fatal(err)
					}
				}
				// all smalls fit under both policies: drain their grants so
				// the large offers meet the fully fragmented/packed pool
				for g := 0; g < nSmall; g++ {
					<-placed
				}
				for t := 0; t < nLarge; t++ {
					if err := sched.Submit(scheduler.Request{UID: "large", Cores: fat.Cores, GPUs: fat.GPUs}); err != nil {
						b.Fatal(err)
					}
				}
				got := 0
				for g := 0; g < pol.larges; g++ {
					p := <-placed
					if p.Req.UID != "large" {
						b.Fatalf("unexpected grant %q", p.Req.UID)
					}
					got++
				}
				if got != pol.larges {
					b.Fatalf("granted %d larges under %s, expected %d", got, pol.name, pol.larges)
				}
				// no releases happen, so the ungranted larges are exactly
				// the wait-pool remainder — deterministic under both policies
				if w := sched.Waiting(); w != nLarge-pol.larges {
					b.Fatalf("%s left %d waiting, expected %d", pol.name, w, nLarge-pol.larges)
				}
				largesGranted += int64(got)
				sched.Close()
			}
			b.ReportMetric(float64(largesGranted)/float64(b.N), "larges-granted")
		})
	}
}

// --- Open-loop load harness (PR 7) ------------------------------------------

// BenchmarkAblationLoad runs the loadgen scenario catalog — steady,
// diurnal wave, hotspot skew, straggler backend, mid-stream pilot churn —
// as full open-loop campaigns on the virtual clock. Counts are exact and
// asserted (offered == catalog request budget, nothing lost); reported
// metrics carry the harness's headline numbers: wall-clock request
// throughput, virtual-time makespan, and the fixed sketch footprint.
func BenchmarkAblationLoad(b *testing.B) {
	for _, sc := range loadgen.Catalog() {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			var wall time.Duration
			var last *loadgen.Result
			for i := 0; i < b.N; i++ {
				res, err := loadgen.Run(context.Background(), sc)
				if err != nil {
					b.Fatal(err)
				}
				if res.Offered != int64(sc.Requests) || res.Completed+res.Failed != res.Offered {
					b.Fatalf("%s: offered=%d completed=%d failed=%d (budget %d)",
						sc.Name, res.Offered, res.Completed, res.Failed, sc.Requests)
				}
				wall += res.Wall
				last = res
			}
			b.ReportMetric(float64(last.Offered)*float64(b.N)/wall.Seconds(), "req/s")
			b.ReportMetric(last.Duration.Seconds(), "sim-s")
			b.ReportMetric(float64(last.SketchBytes), "sketch-B")
		})
	}
}

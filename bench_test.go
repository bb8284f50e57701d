// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation as testing.B benchmarks:
//
//	BenchmarkTable1UseCases       — Table I   (the three LUCID pipelines)
//	BenchmarkTable2Setup          — Table II  (experiment parameterization)
//	BenchmarkExp1BootstrapTime    — Fig. 3    (BT scaling, 1..640 services)
//	BenchmarkExp2LocalNOOP        — Fig. 4    (local NOOP RT, strong+weak)
//	BenchmarkExp2RemoteNOOP       — Fig. 5    (remote NOOP RT, strong+weak)
//	BenchmarkExp3InferenceLocal   — Fig. 6    (llama IT, local)
//	BenchmarkExp3InferenceRemote  — Fig. 6    (llama IT, remote)
//
// plus ablation benchmarks for the design decisions DESIGN.md calls out
// (service-priority scheduling, single-threaded services, load balancing).
//
// Reported custom metrics carry the figure series: e.g. Exp 1 reports
// launch-s, init-s and publish-s per instance; Exp 2/3 report comm-ms,
// svc-ms, infer-ms per request. Request budgets are reduced relative to
// the paper (1024 requests/client) to keep `go test -bench=.` tractable;
// cmd/rpexp runs the full-budget sweeps.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loadbal"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/platform"
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
		build func(sess *core.Session, coll *metrics.Collector) *workflow.Pipeline
	}{
		{"cell-painting", func(sess *core.Session, _ *metrics.Collector) *workflow.Pipeline {
			return usecases.CellPainting(usecases.CellPaintingConfig{
				DatasetBytes: 8 << 30, Shards: 4, HPOTrials: 4,
			}, sess.RNG())
		}},
		{"signature-detection", func(sess *core.Session, coll *metrics.Collector) *workflow.Pipeline {
			return usecases.Signature(usecases.SignatureConfig{
				Samples: 5, UseLLM: true, LLMQueries: 2, Collector: coll,
			}, sess.RNG())
		}},
		{"uncertainty-quantification", func(sess *core.Session, _ *metrics.Collector) *workflow.Pipeline {
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
				rep, err := runner.Run(context.Background(), c.build(sess, coll))
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

// --- Table II ------------------------------------------------------------------

// BenchmarkTable2Setup renders the experiment-setup table (trivial; exists
// so every paper artifact has a bench target).
func BenchmarkTable2Setup(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.TableII().Render()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// --- Experiment 1 / Fig. 3 ------------------------------------------------------

// BenchmarkExp1BootstrapTime regenerates the Fig. 3 series: per-instance
// launch/init/publish bootstrap components for growing instance counts.
func BenchmarkExp1BootstrapTime(b *testing.B) {
	for _, n := range []int{1, 8, 40, 160, 320, 640} {
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) {
			var launch, init, publish float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBT(context.Background(), experiments.BTConfig{
					Counts: []int{n}, Model: "llama-8b", Scale: 200, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				launch += row.Launch.Mean.Seconds()
				init += row.Init.Mean.Seconds()
				publish += row.Publish.Mean.Seconds()
			}
			b.ReportMetric(launch/float64(b.N), "launch-s")
			b.ReportMetric(init/float64(b.N), "init-s")
			b.ReportMetric(publish/float64(b.N), "publish-s")
		})
	}
}

// --- Experiments 2 and 3 / Figs. 4-6 ---------------------------------------------

func benchRT(b *testing.B, model string, deploy experiments.Deployment, requests, maxTokens int, scale float64) {
	type point struct {
		scaling string
		pair    [2]int
	}
	var points []point
	for _, p := range experiments.StrongPairs() {
		points = append(points, point{"strong", p})
	}
	for _, p := range experiments.WeakPairs() {
		points = append(points, point{"weak", p})
	}
	for _, pt := range points {
		name := fmt.Sprintf("%s/clients=%d/services=%d", pt.scaling, pt.pair[0], pt.pair[1])
		b.Run(name, func(b *testing.B) {
			var comm, svc, infer float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRT(context.Background(), experiments.RTConfig{
					Model: model, Deploy: deploy,
					Pairs:             [][2]int{pt.pair},
					RequestsPerClient: requests,
					MaxTokens:         maxTokens,
					Scale:             scale,
					Seed:              uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				comm += float64(row.Comm.Mean.Microseconds()) / 1000
				svc += float64(row.Service.Mean.Microseconds()) / 1000
				infer += float64(row.Infer.Mean.Microseconds()) / 1000
			}
			b.ReportMetric(comm/float64(b.N), "comm-ms")
			b.ReportMetric(svc/float64(b.N), "svc-ms")
			b.ReportMetric(infer/float64(b.N), "infer-ms")
		})
	}
}

// BenchmarkExp2LocalNOOP regenerates Fig. 4 (local NOOP response time).
func BenchmarkExp2LocalNOOP(b *testing.B) {
	benchRT(b, "noop", experiments.DeployLocal, 64, 0, 1)
}

// BenchmarkExp2RemoteNOOP regenerates Fig. 5 (remote NOOP response time).
func BenchmarkExp2RemoteNOOP(b *testing.B) {
	benchRT(b, "noop", experiments.DeployRemote, 64, 0, 1)
}

// BenchmarkExp3InferenceLocal regenerates Fig. 6's local configuration
// (Table II row 3, llama-8b on Delta).
func BenchmarkExp3InferenceLocal(b *testing.B) {
	benchRT(b, "llama-8b", experiments.DeployLocal, 4, 128, 1000)
}

// BenchmarkExp3InferenceRemote regenerates Fig. 6 (remote llama-8b
// inference from Delta clients to R3 services).
func BenchmarkExp3InferenceRemote(b *testing.B) {
	benchRT(b, "llama-8b", experiments.DeployRemote, 4, 128, 1000)
}

// --- Ablations ------------------------------------------------------------------

// BenchmarkAblationServiceConcurrency compares the paper's single-threaded
// service against the multi-threaded future-work configuration under the
// contended 16-clients/1-service point: queueing (the svc-ms metric)
// should collapse with workers.
func BenchmarkAblationServiceConcurrency(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var svc float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRT(context.Background(), experiments.RTConfig{
					Model: "llama-8b", Deploy: experiments.DeployLocal,
					Pairs:              [][2]int{{8, 1}},
					RequestsPerClient:  2,
					MaxTokens:          64,
					Scale:              1000,
					Seed:               uint64(i + 1),
					ServiceConcurrency: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				svc += float64(res.Rows[0].Service.Mean.Microseconds()) / 1000
			}
			b.ReportMetric(svc/float64(b.N), "svc-ms")
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
	countOnly := scheduler.BackfillConfig{MaxDelay: -1} // K = DefaultMaxBypass
	policies := []struct {
		name string
		mk   func() scheduler.Policy
		// bypasses is the deterministic number of smalls granted while
		// the head is blocked: 0 (strict), K, or all of them.
		bypasses int
	}{
		{"strict", func() scheduler.Policy { return scheduler.Strict() }, 0},
		{"backfill-k16", func() scheduler.Policy { return scheduler.Backfill(countOnly) }, scheduler.DefaultMaxBypass},
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
		{"first-fit", func() scheduler.Policy { return scheduler.Strict() }, 0},
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

// BenchmarkAblationPartitionedBootstrap quantifies the paper's §IV-B
// mitigation for the launch penalty: partitioning a 640-instance
// bootstrap into ≤160-instance waves keeps per-instance launch time at
// the base (~2.2 s instead of ~20 s), trading per-instance overhead for
// wall-clock (waves serialize on the dominant init time).
func BenchmarkAblationPartitionedBootstrap(b *testing.B) {
	for _, part := range []int{0, 160} {
		name := "monolithic-640"
		if part > 0 {
			name = fmt.Sprintf("partition=%d", part)
		}
		b.Run(name, func(b *testing.B) {
			var launch, wall float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBT(context.Background(), experiments.BTConfig{
					Counts: []int{640}, Model: "llama-8b", Scale: 200,
					Seed: uint64(i + 1), Partition: part,
				})
				if err != nil {
					b.Fatal(err)
				}
				launch += res.Rows[0].Launch.Mean.Seconds()
				wall += res.Rows[0].Wall.Seconds()
			}
			b.ReportMetric(launch/float64(b.N), "launch-s")
			b.ReportMetric(wall/float64(b.N), "wall-sim-s")
		})
	}
}

// BenchmarkAblationServiceFailover quantifies what the session endpoint
// registry buys across a pilot death — the failure mode the paper's
// in-pilot services cannot survive. The hetero campus is split into two
// pilots; a noop service bootstraps on the first, a client streams
// requests, the hosting pilot is killed mid-stream and the session
// re-places + re-publishes the service on the survivor. The
// endpoint-caching client (seed behaviour) recovers 0 post-failover
// requests against the dead address; the registry-resolving client
// detects the stale generation and recovers all of them. The "recovered"
// metric is that deterministic count; ns/op covers the full scenario
// (session + two pilots + service failover + all requests).
func BenchmarkAblationServiceFailover(b *testing.B) {
	const requests, killAfter = 8, 4
	clients := []struct {
		name      string
		recovered int
	}{
		{experiments.SvcFailClientCaching, 0},
		{experiments.SvcFailClientResolving, requests - killAfter},
	}
	for _, cl := range clients {
		b.Run(cl.name, func(b *testing.B) {
			var recovered int64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunSvcFail(context.Background(), experiments.SvcFailConfig{
					Platform: "hetero",
					Requests: requests, KillAfter: killAfter,
					Clients: []string{cl.name},
					Scale:   2000, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.Recovered != cl.recovered {
					b.Fatalf("%s recovered %d/%d post-failover requests, expected %d",
						cl.name, row.Recovered, requests-killAfter, cl.recovered)
				}
				if row.Replacements != 1 || row.Generation != 2 {
					b.Fatalf("%s: replacements=%d generation=%d, want 1/2",
						cl.name, row.Replacements, row.Generation)
				}
				recovered += int64(row.Recovered)
			}
			b.ReportMetric(float64(recovered)/float64(b.N), "recovered")
		})
	}
}

// BenchmarkAblationCrashRecovery quantifies what the write-ahead journal
// and core.Recover buy across a CLIENT death — the failure mode
// BenchmarkAblationServiceFailover's registry cannot touch, because there
// the session itself survives. Each sub-benchmark drives the full
// crash-recovery scenario at one fault point (tasks + a service across
// two pilots, client killed mid-append, recovery from the journal) and
// asserts the exact resume counts; "resumed" reports the fraction of
// in-flight tasks the recovered session ran to DONE (always 1.0 — the
// journal-less contrast inside the same run resumes 0).
func BenchmarkAblationCrashRecovery(b *testing.B) {
	points := []struct {
		name  string
		extra int // trigger entities the fault point adds to the fleet
	}{
		{experiments.FaultMidTransition, 1},
		{experiments.FaultMidPublish, 0},
		{experiments.FaultMidFailover, 0},
	}
	const tasks = 4
	for _, pt := range points {
		b.Run(pt.name, func(b *testing.B) {
			var resumed float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCrashRec(context.Background(), experiments.CrashRecConfig{
					Tasks: tasks, FaultPoints: []string{pt.name},
					Scale: 20000, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range res.Rows {
					want := 0
					if row.Journaled {
						want = tasks + pt.extra
					}
					if !row.Journaled && row.Recovered {
						b.Fatalf("%s: journal-less contrast recovered state", pt.name)
					}
					if row.TasksCompleted != want {
						b.Fatalf("%s journaled=%v: completed %d/%d tasks after the crash",
							pt.name, row.Journaled, row.TasksCompleted, want)
					}
					if row.Journaled {
						resumed += float64(row.TasksCompleted) / float64(row.TasksInFlight)
					}
				}
			}
			b.ReportMetric(resumed/float64(b.N), "resumed")
		})
	}
}

// BenchmarkAblationRoute quantifies session-level routing on mismatched
// pilots — the late-binding regime the Router seam exists for. The
// hetero campus is split into a fat pilot (32×128c/16g) and a thin pilot
// (96×16c): blind round-robin dispatch binds every second whole-fat-node
// task to the thin pilot, whose shapes can never run it (the task fails
// as unsatisfiable), while capacity-fit consults pilot shapes plus live
// scheduler snapshots and completes all of them. The "fat-done" metric
// is the deterministic per-router completion count; ns/op covers the
// full scenario (session + two pilots + all task lifecycles).
func BenchmarkAblationRoute(b *testing.B) {
	const nFat, nThin = 8, 16
	routers := []struct {
		name    string
		fatDone int
	}{
		{"round-robin", nFat / 2},
		{"capacity-fit", nFat},
	}
	for _, rt := range routers {
		b.Run(rt.name, func(b *testing.B) {
			var fatDone int64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRoute(context.Background(), experiments.RouteConfig{
					Platform: "hetero",
					Routers:  []string{rt.name},
					FatTasks: nFat, ThinTasks: nThin,
					Scale: 2000, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.FatDone != rt.fatDone {
					b.Fatalf("%s completed %d/%d fat tasks, expected %d",
						rt.name, row.FatDone, nFat, rt.fatDone)
				}
				if row.ThinDone != nThin {
					b.Fatalf("%s completed %d/%d thin tasks", rt.name, row.ThinDone, nThin)
				}
				fatDone += int64(row.FatDone)
			}
			b.ReportMetric(float64(fatDone)/float64(b.N), "fat-done")
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

// BenchmarkAblationScale runs the serving-scalability ablation: the
// vit-base offered-load sweep over the single / concurrent / batched
// serving modes plus the diurnal fixed-vs-autoscaled replica pair. Every
// count is exact (nothing rejected, nothing lost), and the two headline
// claims are asserted on every run: continuous batching at least doubles
// the saturated single-worker throughput, and the autoscaler beats the
// fixed single replica's tail latency under the diurnal wave.
func BenchmarkAblationScale(b *testing.B) {
	cfg := experiments.DefaultScaleConfig()
	cfg.Requests = 4000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScale(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := make(map[string]experiments.ScaleRow, len(res.Rows))
		for _, row := range res.Rows {
			if row.Completed != row.Offered || row.Failed != 0 {
				b.Fatalf("%s: offered=%d completed=%d failed=%d",
					row.Config, row.Offered, row.Completed, row.Failed)
			}
			rows[row.Config] = row
		}
		single, batched := rows["single@8000"], rows["batched@8000"]
		if batched.Throughput < 2*single.Throughput {
			b.Fatalf("batched throughput %.0f/s not 2x saturated single %.0f/s",
				batched.Throughput, single.Throughput)
		}
		fixed, scaled := rows["diurnal-fixed"], rows["diurnal-autoscaled"]
		if scaled.P99 >= fixed.P99 {
			b.Fatalf("autoscaled p99 %v not under fixed p99 %v", scaled.P99, fixed.P99)
		}
		if scaled.PeakReplicas < 2 {
			b.Fatalf("autoscaler never scaled: peak replicas %d", scaled.PeakReplicas)
		}
		b.ReportMetric(batched.Throughput/single.Throughput, "batch-speedup")
		b.ReportMetric(float64(scaled.PeakReplicas), "peak-reps")
		b.ReportMetric(float64(scaled.P99.Milliseconds()), "auto-p99-ms")
		b.ReportMetric(float64(fixed.P99.Milliseconds()), "fixed-p99-ms")
	}
}

// --- Multi-process sessions (PR 9) -------------------------------------------

// BenchmarkAblationXproc runs the cross-process ablation: the route and
// service-failover scenarios with every pilot as a real OS process
// (re-executions of this test binary, see TestMain) reached over the
// pooled TCP transport, next to their in-proc twins. The determinism
// contract is asserted on every run: outcome counts must be identical
// across the transport swap — the wire changes timing, never results.
func BenchmarkAblationXproc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunXproc(context.Background(), experiments.DefaultXprocConfig())
		if err != nil {
			b.Fatal(err)
		}
		for j, row := range res.Route {
			if row != res.RouteInproc[j] {
				b.Fatalf("route %s diverged: os-process %+v, in-proc %+v", row.Router, row, res.RouteInproc[j])
			}
		}
		post := res.Cfg.Requests - res.Cfg.KillAfter
		for j, row := range res.SvcFail {
			in := res.SvcFailInproc[j]
			if row.PreKill != in.PreKill || row.Recovered != in.Recovered || row.Failed != in.Failed {
				b.Fatalf("svcfail %s diverged: os-process %+v, in-proc %+v", row.Client, row, in)
			}
			if row.Client == experiments.SvcFailClientResolving && row.Recovered != post {
				b.Fatalf("resolving client lost %d/%d post-failover requests", post-row.Recovered, post)
			}
		}
		b.ReportMetric(float64(len(res.Route)+len(res.SvcFail)), "xproc-rows")
	}
}

// --- Load-aware balancing + warm standbys (PR 10) ----------------------------

// BenchmarkAblationHotspot runs the hotspot-balancing ablation: the
// identical 80%-skewed seeded stream against p2c, blind round-robin and
// the full-scan least-loaded oracle, plus the warm-vs-cold failover
// contrast. The headline claims are asserted on every run: load-aware p2c
// beats blind selection strictly at p99 while staying within 2x of the
// full-scan oracle, and promoting a warm standby is faster than a cold
// re-bootstrap.
func BenchmarkAblationHotspot(b *testing.B) {
	cfg := experiments.DefaultHotspotConfig()
	cfg.Requests = 4000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHotspot(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := make(map[string]experiments.HotspotRow, len(res.Rows))
		for _, row := range res.Rows {
			if row.Completed+row.Failed != row.Offered || row.Offered != int64(cfg.Requests) {
				b.Fatalf("%s: offered=%d completed=%d failed=%d",
					row.Balancer, row.Offered, row.Completed, row.Failed)
			}
			rows[row.Balancer] = row
		}
		p2c, rr, least := rows["p2c"], rows["round-robin"], rows["least-loaded"]
		if p2c.P99 >= rr.P99 {
			b.Fatalf("p2c p99 %v not strictly under blind round-robin %v", p2c.P99, rr.P99)
		}
		if p2c.P99 > 2*least.P99 {
			b.Fatalf("p2c p99 %v outside 2x band of least-loaded %v", p2c.P99, least.P99)
		}
		fo := make(map[string]experiments.FailoverRow, len(res.Failover))
		for _, row := range res.Failover {
			fo[row.Mode] = row
		}
		warm, cold := fo[experiments.FailoverWarm], fo[experiments.FailoverCold]
		if warm.Generations != 1 || warm.Promotions != 1 || warm.Replacements != 0 {
			b.Fatalf("warm failover: gens=%d promotions=%d replacements=%d, want 1/1/0",
				warm.Generations, warm.Promotions, warm.Replacements)
		}
		if warm.Latency >= cold.Latency {
			b.Fatalf("warm failover %v not under cold re-bootstrap %v", warm.Latency, cold.Latency)
		}
		b.ReportMetric(float64(rr.P99.Microseconds())/float64(p2c.P99.Microseconds()), "p99-vs-rr")
		b.ReportMetric(float64(cold.Latency.Milliseconds())/float64(warm.Latency.Milliseconds()), "failover-speedup")
		b.ReportMetric(float64(p2c.P99.Microseconds()), "p2c-p99-us")
	}
}

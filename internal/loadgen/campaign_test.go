package loadgen

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
)

// exactScenarios is the deterministic scenario suite for the exact-count
// tests: the catalog shapes, sized so the whole table runs in well under
// two seconds of wall time.
func exactScenarios() []Scenario {
	return []Scenario{
		{Name: "steady", Kind: KindSteady, Requests: 10000, Rate: 2000, Services: 4, Seed: 7, TaskEvery: 1000},
		{Name: "diurnal", Kind: KindDiurnal, Requests: 10000, Rate: 2000, Services: 4, Seed: 7},
		{Name: "hotspot", Kind: KindHotspot, Requests: 10000, Rate: 2000, Services: 4, Seed: 7},
		{Name: "straggler", Kind: kindStraggler, Requests: 4000, Rate: 800, Services: 4, Seed: 7},
		{Name: "churn", Kind: kindChurn, Requests: 10000, Rate: 2000, Services: 4, Seed: 7},
	}
}

// TestLoadScenarioExactCounts pins the outcome of every scenario shape to
// exact values: offered/completed/failed counts, task-stream counts,
// failover counts, the virtual-time makespan and the sketched percentiles.
// The campaigns are deterministic by construction, so there is nothing to
// tolerate: any drift here means the harness, the clock, or the runtime
// under test changed behaviour.
func TestLoadScenarioExactCounts(t *testing.T) {
	want := map[string]struct {
		offered, completed, failed int64
		tasksSubmitted, tasksDone  int64
		replacements, reresolved   int
		duration                   time.Duration
		p50, p99, max              time.Duration
	}{
		"steady": {
			offered: 10000, completed: 10000, failed: 0,
			tasksSubmitted: 10, tasksDone: 10,
			duration: 4947434749,
			p50:      158000, p99: 209056, max: 243006,
		},
		"diurnal": {
			offered: 10000, completed: 10000, failed: 0,
			duration: 3579808740,
			p50:      154871, p99: 209056, max: 243006,
		},
		// hotspot routes its 80% skewed mass through the p2c balancer
		// (Scenario.Balance defaults to "p2c"): the re-pinned percentiles
		// sit below the pre-balancer row (p50 158µs, p99 213.28µs, max
		// 240.641µs) because the picker spreads the hot mass off the
		// background-loaded backends.
		"hotspot": {
			offered: 10000, completed: 10000, failed: 0,
			duration: 4947427046,
			p50:      154871, p99: 209056, max: 244123,
		},
		"straggler": {
			offered: 4000, completed: 4000, failed: 0,
			duration: 4967371723,
			p50:      164448, p99: 6923798, max: 10858089,
		},
		"churn": {
			offered: 10000, completed: 10000, failed: 0,
			replacements: 2, reresolved: 2,
			duration: 4947426074,
			p50:      154871, p99: 209056, max: 243565,
		},
	}

	for _, sc := range exactScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[sc.Name]
			if !ok {
				t.Fatalf("no pinned expectation for scenario %q", sc.Name)
			}
			r, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if r.Offered != w.offered || r.Completed != w.completed || r.Failed != w.failed {
				t.Errorf("counts: offered=%d completed=%d failed=%d, want %d/%d/%d",
					r.Offered, r.Completed, r.Failed, w.offered, w.completed, w.failed)
			}
			if r.TasksSubmitted != w.tasksSubmitted || r.TasksDone != w.tasksDone {
				t.Errorf("tasks: submitted=%d done=%d, want %d/%d",
					r.TasksSubmitted, r.TasksDone, w.tasksSubmitted, w.tasksDone)
			}
			if r.Replacements != w.replacements || r.Reresolved != w.reresolved {
				t.Errorf("failover: replacements=%d reresolved=%d, want %d/%d",
					r.Replacements, r.Reresolved, w.replacements, w.reresolved)
			}
			if r.Duration != w.duration {
				t.Errorf("duration %d (%v), want %d (%v)", r.Duration, r.Duration, w.duration, w.duration)
			}
			if got := r.Latency.Quantile(0.50); got != w.p50 {
				t.Errorf("p50 %d (%v), want %d (%v)", got, got, w.p50, w.p50)
			}
			if got := r.Latency.Quantile(0.99); got != w.p99 {
				t.Errorf("p99 %d (%v), want %d (%v)", got, got, w.p99, w.p99)
			}
			if got := r.Latency.Max(); got != w.max {
				t.Errorf("max %d (%v), want %d (%v)", got, got, w.max, w.max)
			}
		})
	}
}

// TestLoadCampaignDeterministicReplay runs the lightest and the most
// contended scenario, the failover and the balanced hotspot several times
// each and requires bit-identical results — counts, makespan, and every
// sketched percentile and sample. Under churn a leader hands the schedule
// over while the failover holds the clock still; under hotspot the
// hand-overs happen under the p2c balancer.
func TestLoadCampaignDeterministicReplay(t *testing.T) {
	for _, sc := range []Scenario{
		{Name: "steady", Kind: KindSteady, Requests: 3000, Rate: 1500, Services: 4, Seed: 42},
		{Name: "straggler", Kind: kindStraggler, Requests: 2000, Rate: 800, Services: 4, Seed: 42},
		{Name: "churn", Kind: kindChurn, Requests: 3000, Rate: 1500, Services: 4, Seed: 42},
		{Name: "hotspot", Kind: KindHotspot, Requests: 3000, Rate: 1500, Services: 4, Seed: 42},
	} {
		sc := sc
		sc.KeepSamples = true
		t.Run(sc.Name, func(t *testing.T) {
			a, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			// Replay it with one and with every processor: no count and
			// no sample may tell them apart.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, runtime.NumCPU()} {
				runtime.GOMAXPROCS(procs)
				b, err := Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				if a.Offered != b.Offered || a.Completed != b.Completed || a.Failed != b.Failed {
					t.Errorf("procs %d: counts differ: %d/%d/%d vs %d/%d/%d", procs,
						a.Offered, a.Completed, a.Failed, b.Offered, b.Completed, b.Failed)
				}
				if a.Duration != b.Duration {
					t.Errorf("procs %d: makespan differs: %v vs %v", procs, a.Duration, b.Duration)
				}
				for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
					if qa, qb := a.Latency.Quantile(q), b.Latency.Quantile(q); qa != qb {
						t.Errorf("procs %d: q%.2f differs: %v vs %v", procs, q, qa, qb)
					}
				}
				if !slices.Equal(a.Samples, b.Samples) {
					t.Errorf("procs %d: the %d latency samples differ", procs, len(a.Samples))
				}
			}
		})
	}
}

// TestLoadSketchWithinBoundOfOracle retains every completion latency and
// checks the streaming sketch against the exact sorted-sample oracle on
// every scenario shape, at the sketch's documented bound.
func TestLoadSketchWithinBoundOfOracle(t *testing.T) {
	for _, sc := range exactScenarios() {
		sc := sc
		sc.KeepSamples = true
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(r.Samples)) != r.Completed {
				t.Fatalf("kept %d samples, want %d", len(r.Samples), r.Completed)
			}
			sorted := make([]time.Duration, len(r.Samples))
			copy(sorted, r.Samples)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			alpha := metrics.DefaultSketchAlpha
			for _, q := range []float64{0.50, 0.90, 0.99} {
				rank := int(math.Ceil(q * float64(len(sorted))))
				if rank < 1 {
					rank = 1
				}
				exact := sorted[rank-1]
				got := r.Latency.Quantile(q)
				tol := time.Duration(alpha*float64(exact)*(1+1e-9)) + 1
				if diff := (got - exact).Abs(); diff > tol {
					t.Errorf("q%.2f: sketch %v vs oracle %v (diff %v > tol %v)", q, got, exact, diff, tol)
				}
			}
			if r.Latency.Max() != sorted[len(sorted)-1] {
				t.Errorf("sketch max %v, oracle %v (max must be exact)", r.Latency.Max(), sorted[len(sorted)-1])
			}
			// The exact-summary oracle agrees on N and extremes too.
			exactSeries := metrics.NewCollector()
			for _, v := range r.Samples {
				exactSeries.Add("latency", v)
			}
			st := exactSeries.Stats("latency")
			if int64(st.N) != r.Completed || st.Max != r.Latency.Max() || st.Min != r.Latency.Quantile(0) {
				t.Errorf("Stats oracle disagrees: N=%d max=%v min=%v vs completed=%d max=%v min=%v",
					st.N, st.Max, st.Min, r.Completed, r.Latency.Max(), r.Latency.Quantile(0))
			}
		})
	}
}

// TestLoadTraceCampaign drives a hand-written trace through one worker whose
// model is slower than every gap, so each request queues behind the one
// before it: a latency is the previous completion plus its own service time,
// less its own arrival. Each kept latency thus moves with its own arrival
// and the first one moves all the others, so the pinned values hold every
// arrival at its scheduled virtual time.
func TestLoadTraceCampaign(t *testing.T) {
	sc := Scenario{
		Name: "trace", Kind: kindTrace, Rate: 1, Services: 1, Seed: 9,
		Model: "llama-8b", MaxTokens: 16, KeepSamples: true,
		// Arrivals at 10ms, 30ms, 60ms, 150ms and 250ms.
		Trace: []time.Duration{
			10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
			90 * time.Millisecond, 100 * time.Millisecond,
		},
	}
	r, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered != 5 || r.Completed != 5 || r.Failed != 0 {
		t.Fatalf("counts offered=%d completed=%d failed=%d, want 5/5/0", r.Offered, r.Completed, r.Failed)
	}
	want := []time.Duration{179615751, 426168321, 638215616, 826483611, 1104772730}
	if !slices.Equal(r.Samples, want) {
		t.Fatalf("latencies %v, want %v", r.Samples, want)
	}
}

// benchScenario is the scenario of bench/rpbench's campaign workload of
// that name, cut to the given number of requests, at seed 7.
func benchScenario(name string, requests int) Scenario {
	if name == "campaign_steady" {
		return Scenario{
			Name: name, Kind: KindSteady, Requests: requests, Rate: 2000,
			Services: 4, Concurrency: 1, Seed: 7, TaskEvery: 1000, KeepSamples: true,
		}
	}
	return Scenario{
		Name: name, Kind: KindHotspot, HotspotWeight: 0.8, Balance: "p2c",
		Requests: requests, Rate: 8000, Services: 4, Model: "vit-base",
		Concurrency: 2, MaxBatch: 8, MaxTokens: 8, QueueCap: 200000, Seed: 7, KeepSamples: true,
	}
}

// TestCampaignWakeBudget pins how often one request of bench/rpbench's two
// campaigns, at their full 25 000 requests and set-up included, parks a
// goroutine on the virtual clock: in Sleep, a Handoff's Recv or an Alarm's
// Wait (Result.Parks). At GOMAXPROCS 1 the count replays exactly; with more
// Ps a Sleep self-wakes or parks as other goroutines of the same instant
// happen to have parked, so there it is reported, not pinned.
// campaign_steady's requests never queue: 1.216. On campaign_batched the
// caller of a queued request parked for the worker's reply and then again
// to sleep the reply hop: 4.153. Since the worker hands the reply over at
// the end of the hop (simtime.Handoff.SendAfter), it parks once: 3.157.
func TestCampaignWakeBudget(t *testing.T) {
	const requests = 25000
	for _, row := range []struct {
		name, want string
	}{
		{"campaign_steady", "1.216"},
		{"campaign_batched", "3.157"},
	} {
		res, err := Run(context.Background(), benchScenario(row.name, requests))
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != requests {
			t.Fatalf("%s: completed %d of %d requests", row.name, res.Completed, requests)
		}
		got := fmt.Sprintf("%.3f", float64(res.Parks)/requests)
		procs := runtime.GOMAXPROCS(0)
		if procs == 1 && got != row.want {
			t.Errorf("%s parks %s times per request, want %s", row.name, got, row.want)
		}
		t.Logf("%s at GOMAXPROCS %d: %s parks per request", row.name, procs, got)
	}
}

// TestBatchedCampaignReplays runs campaign_batched, cut to 5 000 requests,
// several times and requires identical latency samples and makespan, the
// same at every GOMAXPROCS. Its queued replies are handed over by the
// workers, which draw a batch's reply hops in batch order; when the woken
// callers drew them, in whatever order the host ran them, hardly two runs
// agreed.
func TestBatchedCampaignReplays(t *testing.T) {
	const makespan, maxLatency = 632389560, 14745018
	sc := benchScenario("campaign_batched", 5000)
	var first *Result
	for run := range 4 {
		r, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Duration != makespan || r.Latency.Max() != maxLatency {
			t.Fatalf("run %d: makespan %d, max latency %d; want %d, %d", run, r.Duration, r.Latency.Max(), makespan, maxLatency)
		}
		if first == nil {
			first = r
		} else if !slices.Equal(r.Samples, first.Samples) {
			t.Fatalf("run %d: the %d latency samples differ from run 0's", run, len(r.Samples))
		}
	}
}

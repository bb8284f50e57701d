package loadgen

import (
	"context"
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
		{Name: "steady", Kind: KindSteady, Requests: 10000, Rate: 2000, Services: 4, Seed: 7, Interval: time.Second, TaskEvery: 1000},
		{Name: "diurnal", Kind: KindDiurnal, Requests: 10000, Rate: 2000, Services: 4, Seed: 7, Interval: time.Second},
		{Name: "hotspot", Kind: KindHotspot, Requests: 10000, Rate: 2000, Services: 4, Seed: 7, Interval: time.Second},
		{Name: "straggler", Kind: KindStraggler, Requests: 4000, Rate: 800, Services: 4, Seed: 7, Interval: time.Second},
		{Name: "churn", Kind: KindChurn, Requests: 10000, Rate: 2000, Services: 4, Seed: 7, Interval: time.Second},
	}
}

// TestLoadScenarioExactCounts pins the outcome of every scenario shape to
// exact values: offered/completed/failed counts, task-stream counts,
// failover counts, the virtual-time makespan, the sketched percentiles,
// and the per-interval offered counts (which pin the interval boundaries
// too — a request landing one interval over changes two entries). The
// campaigns are deterministic by construction, so there is nothing to
// tolerate: any drift here means the harness, the clock, or the runtime
// under test changed behaviour.
func TestLoadScenarioExactCounts(t *testing.T) {
	want := map[string]struct {
		offered, completed, failed int64
		tasksSubmitted, tasksDone  int64
		replacements, reresolved   int
		duration                   time.Duration
		p50, p99, max              time.Duration
		intervalOffered            []int64
	}{
		"steady": {
			offered: 10000, completed: 10000, failed: 0,
			tasksSubmitted: 10, tasksDone: 10,
			duration: 4947434749,
			p50:      158000, p99: 209056, max: 243006,
			intervalOffered: []int64{2002, 2022, 2025, 2000, 1951},
		},
		"diurnal": {
			offered: 10000, completed: 10000, failed: 0,
			duration: 3579808740,
			p50:      154871, p99: 209056, max: 243006,
			intervalOffered: []int64{2248, 2702, 3076, 1974},
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
			intervalOffered: []int64{2002, 2022, 2025, 2000, 1951},
		},
		"straggler": {
			offered: 4000, completed: 4000, failed: 0,
			duration: 4967371723,
			p50:      164448, p99: 6923798, max: 10858089,
			intervalOffered: []int64{790, 806, 802, 792, 810},
		},
		"churn": {
			offered: 10000, completed: 10000, failed: 0,
			replacements: 2, reresolved: 2,
			duration: 4947426074,
			p50:      154871, p99: 209056, max: 243565,
			intervalOffered: []int64{2002, 2022, 2025, 2000, 1951},
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
			rows := r.Series.Rows()
			if len(rows) != len(w.intervalOffered) {
				t.Fatalf("%d intervals, want %d", len(rows), len(w.intervalOffered))
			}
			for i, row := range rows {
				if row.Offered != w.intervalOffered[i] {
					t.Errorf("interval %d offered %d, want %d", i, row.Offered, w.intervalOffered[i])
				}
				if wantStart := time.Duration(i) * sc.Interval; row.Start != wantStart {
					t.Errorf("interval %d starts at %v, want %v", i, row.Start, wantStart)
				}
			}
		})
	}
}

// TestLoadCampaignDeterministicReplay runs the lightest and the most
// contended scenario twice each and requires bit-identical results —
// counts, makespan, and every sketched percentile.
func TestLoadCampaignDeterministicReplay(t *testing.T) {
	for _, sc := range []Scenario{
		{Name: "steady", Kind: KindSteady, Requests: 3000, Rate: 1500, Services: 4, Seed: 42},
		{Name: "straggler", Kind: KindStraggler, Requests: 2000, Rate: 800, Services: 4, Seed: 42},
	} {
		sc := sc
		sc.KeepSamples = true
		t.Run(sc.Name, func(t *testing.T) {
			a, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			// How many request runners a campaign starts depends on the
			// host's scheduling, so replay it with one and with every
			// processor: no count and no sample may tell them apart.
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
			alpha := r.Latency.Alpha()
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
			st := metrics.Compute(r.Samples)
			if int64(st.N) != r.Completed || st.Max != r.Latency.Max() || st.Min != r.Latency.Min() {
				t.Errorf("Compute oracle disagrees: N=%d max=%v min=%v vs completed=%d max=%v min=%v",
					st.N, st.Max, st.Min, r.Completed, r.Latency.Max(), r.Latency.Min())
			}
		})
	}
}

// TestLoadTraceCampaign drives a hand-written trace through the harness:
// with explicit gaps the arrival stamps are fully pinned, so the interval
// bucketing is checkable by hand.
func TestLoadTraceCampaign(t *testing.T) {
	sc := Scenario{
		Name: "trace", Kind: KindTrace, Rate: 1, Services: 2, Seed: 9,
		Interval: 100 * time.Millisecond,
		// Arrivals at 10ms, 30ms, 60ms | 150ms | 250ms → intervals 3/1/1.
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
	rows := r.Series.Rows()
	if len(rows) != 3 {
		t.Fatalf("%d intervals, want 3", len(rows))
	}
	for i, wantOff := range []int64{3, 1, 1} {
		if rows[i].Offered != wantOff {
			t.Errorf("interval %d offered %d, want %d", i, rows[i].Offered, wantOff)
		}
	}
	off, comp, fail := r.Series.Totals()
	if off != 5 || comp != 5 || fail != 0 {
		t.Errorf("series totals %d/%d/%d, want 5/5/0", off, comp, fail)
	}
}

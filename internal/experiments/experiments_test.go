package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// column returns every row's cell under the named header of t.
func column(t *testing.T, tab metrics.Table, name string) []string {
	t.Helper()
	i := slices.Index(tab.Header, name)
	if i < 0 {
		t.Fatalf("table %q has no column %q (header %v)", tab.Title, name, tab.Header)
	}
	out := make([]string, len(tab.Rows))
	for r, row := range tab.Rows {
		out[r] = row[i]
	}
	return out
}

// TestExp1PartitionedBootstrap pins the paper's §IV-B mitigation for the
// post-160 launch penalty at 640 services: bootstrapping in waves of 160
// keeps the per-instance launch time at its base (2.2 s instead of 20.2 s)
// and pays for it in makespan, the waves serializing on the dominant init
// time (2m36s instead of 57 s). Both points run on the virtual clock, so
// every value is exact.
func TestExp1PartitionedBootstrap(t *testing.T) {
	o := Options{Seed: exp1Seed}
	for _, tc := range []struct {
		partition    int
		launch, wall time.Duration
	}{
		{0, 20220796568, 57447797806},
		{160, 2203705521, 155902573845},
	} {
		row, err := btPoint(context.Background(), o, 640, tc.partition)
		if err != nil {
			t.Fatalf("partition=%d: %v", tc.partition, err)
		}
		if row.Launch.N != 640 || row.Launch.Mean != tc.launch || row.Wall != tc.wall {
			t.Errorf("partition=%d: %d launches, mean %v, makespan %v; want 640, %v, %v",
				tc.partition, row.Launch.N, row.Launch.Mean, row.Wall, tc.launch, tc.wall)
		}
	}
}

func TestDefaultConfigsMatchPaper(t *testing.T) {
	if c := exp1Counts; len(c) != 10 || c[0] != 1 || c[9] != 640 {
		t.Fatalf("Exp 1 counts = %v", c)
	}
	if exp1Model != "llama-8b" {
		t.Fatalf("Exp 1 model = %q", exp1Model)
	}
	if exp2.model != "noop" || exp2.requests != 1024 {
		t.Fatalf("Exp 2 = %+v, paper uses noop at 1024 requests/client", exp2)
	}
	if p := scalingStrong.pairs(); p[0] != [2]int{16, 1} || p[len(p)-1] != [2]int{16, 16} {
		t.Fatalf("strong pairs = %v", p)
	}
	if p := scalingWeak.pairs(); p[0] != [2]int{1, 1} || p[len(p)-1] != [2]int{16, 16} {
		t.Fatalf("weak pairs = %v", p)
	}
	if exp3.model != "llama-8b" {
		t.Fatalf("Exp 3 = %+v", exp3)
	}
}

// TestExp1Determinism: a bootstrap measurement on the virtual clock replays
// exactly for the same seed, every component and the makespan.
func TestExp1Determinism(t *testing.T) {
	run := func() btRow {
		row, err := btPoint(context.Background(), Options{Seed: 7}, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("bootstrap rows differ between runs:\n%+v\n%+v", a, b)
	}
}

func TestExp1BootstrapShape(t *testing.T) {
	ctx := context.Background()
	o := Options{Seed: 1}
	var rows []btRow
	for _, n := range []int{1, 8, 320} {
		row, err := btPoint(ctx, o, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row.Launch.N != n || row.Init.N != n {
			t.Fatalf("N=%d: sample counts %d/%d", n, row.Launch.N, row.Init.N)
		}
		// Fig. 3: init dominates launch; publish below launch
		if row.Init.Mean <= row.Launch.Mean {
			t.Fatalf("N=%d: init %v !> launch %v", n, row.Init.Mean, row.Launch.Mean)
		}
		if row.Publish.Mean >= row.Launch.Mean {
			t.Fatalf("N=%d: publish %v !< launch %v", n, row.Publish.Mean, row.Launch.Mean)
		}
		rows = append(rows, row)
	}
	// Fig. 3: launch grows past the 160-instance saturation
	if rows[2].Launch.Mean <= 2*rows[0].Launch.Mean {
		t.Fatalf("launch at 320 (%v) not markedly above launch at 1 (%v)",
			rows[2].Launch.Mean, rows[0].Launch.Mean)
	}
	// init stays roughly flat (per instance) across the sweep
	ratio := float64(rows[2].Init.Mean) / float64(rows[0].Init.Mean)
	if ratio > 2.0 || ratio < 0.5 {
		t.Fatalf("init mean drifted by %.2fx across the sweep", ratio)
	}
	tables, err := runExp1(ctx, Options{Counts: "1,8", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables[0].Title, "Fig. 3") {
		t.Fatalf("title %q", tables[0].Title)
	}
	if got := column(t, tables[0], "#instances"); !slices.Equal(got, []string{"1", "8"}) {
		t.Fatalf("instance counts %v", got)
	}
}

func TestExp2LocalNoopShape(t *testing.T) {
	const requests = 32
	for _, pair := range [][2]int{{4, 1}, {4, 4}} {
		coll, err := exp2.point(context.Background(), Options{Requests: requests, Seed: 2}, deployLocal, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		total, comm, infer := coll.Stats("rt.total"), coll.Stats("rt.communication"), coll.Stats("rt.inference")
		if total.N != pair[0]*requests {
			t.Fatalf("%d/%d: %d samples, want %d", pair[0], pair[1], total.N, pair[0]*requests)
		}
		// Exp 2: communication dominates the NOOP response time
		if comm.Mean <= infer.Mean {
			t.Fatalf("%d/%d: communication %v !> inference %v", pair[0], pair[1], comm.Mean, infer.Mean)
		}
	}
}

func TestExp2RemoteSlowerThanLocal(t *testing.T) {
	comm := func(d deployment) time.Duration {
		coll, err := exp2.point(context.Background(), Options{Requests: 64, Seed: 7}, d, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return coll.Stats("rt.communication").Mean
	}
	lc, rc := comm(deployLocal), comm(deployRemote)
	// paper: remote latency 0.47ms vs local 0.063ms per hop → a round trip
	// (2 hops) is modelled ~0.81ms slower remote
	if rc-lc < 400*time.Microsecond {
		t.Fatalf("remote communication %v not clearly above local %v (want ≥ 400µs gap)", rc, lc)
	}
	if float64(rc) < 1.3*float64(lc) {
		t.Fatalf("remote communication %v not clearly above local %v", rc, lc)
	}
}

func TestExp3InferenceDominates(t *testing.T) {
	e := rtExp{model: "llama-8b", maxTokens: 128}
	coll, err := e.point(context.Background(), Options{Requests: 2, Seed: 3}, deployRemote, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	infer, comm := coll.Stats("rt.inference").Mean, coll.Stats("rt.communication").Mean
	// Fig. 6: inference dwarfs both communication and queue/service time in
	// the weak-scaling (uncontended) regime
	if infer < 5*comm {
		t.Fatalf("inference %v does not dominate communication %v", infer, comm)
	}
	if infer < 500*time.Millisecond {
		t.Fatalf("inference %v implausibly fast for llama-8b", infer)
	}
}

func TestExp3StrongScalingQueueing(t *testing.T) {
	// 4 clients on 1 single-threaded service vs 4 on 4: the contended
	// configuration must show far larger service (queue) time.
	e := rtExp{model: "llama-8b", maxTokens: 64}
	service := func(services int) time.Duration {
		coll, err := e.point(context.Background(), Options{Requests: 2, Seed: 4}, deployLocal, 4, services)
		if err != nil {
			t.Fatal(err)
		}
		return coll.Stats("rt.service").Mean
	}
	if contended, uncontended := service(1), service(4); contended < 2*uncontended {
		t.Fatalf("queueing: contended service time %v vs uncontended %v — no backlog visible",
			contended, uncontended)
	}
}

func TestRTTableRendering(t *testing.T) {
	ctx := context.Background()
	tab, err := exp3.table(ctx, Options{Requests: 1, Seed: 3}, deployRemote, [][2]int{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out := tab.Render(); !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "1/1") {
		t.Fatalf("table:\n%s", out)
	}
	for d, fig := range map[deployment]string{deployLocal: "Fig. 4", deployRemote: "Fig. 5"} {
		tab, err := exp2.table(ctx, Options{Requests: 1}, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(tab.Render(), fig) {
			t.Fatalf("%s title missing from %s table", fig, d)
		}
	}
}

func TestTableII(t *testing.T) {
	out := tableII().Render()
	for _, want := range []string{"Frontier", "Delta and R3", "llama 8b", "strong/weak"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

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

// means parses the mean of every "mean ± std" cell under the named header.
func means(t *testing.T, tab metrics.Table, name string) []float64 {
	t.Helper()
	var out []float64
	for _, cell := range column(t, tab, name) {
		var mean, std float64
		if _, err := fmt.Sscanf(cell, "%f ± %f", &mean, &std); err != nil {
			t.Fatalf("%s cell %q: %v", name, cell, err)
		}
		out = append(out, mean)
	}
	return out
}

// checkColumn fails t unless the named column of tab holds exactly want.
func checkColumn(t *testing.T, tab metrics.Table, name string, want ...string) {
	t.Helper()
	if got := column(t, tab, name); !slices.Equal(got, want) {
		t.Errorf("%s, %s:\n got  %q\n want %q", tab.Title, name, got, want)
	}
}

// TestExp1BootstrapShape reads Fig. 3 off the Exp 1 run: one row per paper
// instance count; in every row init dominates launch and publish stays under
// it; launch is flat at about 2.2 s up to the 160-instance saturation and
// super-linear past it; init stays flat across the sweep.
func TestExp1BootstrapShape(t *testing.T) {
	tab := run(t, "1", Options{})[0].Tables[0]
	checkColumn(t, tab, "#instances", "1", "2", "4", "8", "20", "40", "80", "160", "320", "640")
	checkColumn(t, tab, "launch", "2.360 ± 0.000", "2.011 ± 0.098", "2.264 ± 0.186", "2.210 ± 0.193", "2.240 ± 0.231",
		"2.180 ± 0.283", "2.223 ± 0.298", "2.208 ± 0.296", "6.683 ± 0.302", "20.221 ± 0.299")
	launch, init, publish := means(t, tab, "launch"), means(t, tab, "init"), means(t, tab, "publish")
	for i, n := range column(t, tab, "#instances") {
		if init[i] <= launch[i] || publish[i] >= launch[i] {
			t.Errorf("N=%s: init %.3f, launch %.3f, publish %.3f; want init > launch > publish", n, init[i], launch[i], publish[i])
		}
	}
	if launch[8] <= 2*launch[0] || launch[9] <= launch[8] {
		t.Errorf("launch %.3f s at 320 and %.3f s at 640, want far above %.3f s at 1 and growing", launch[8], launch[9], launch[0])
	}
	if lo, hi := slices.Min(init), slices.Max(init); hi > 2*lo {
		t.Errorf("init mean drifted from %.3f to %.3f across the sweep", lo, hi)
	}
}

// rtSections reads the Exp 2 or Exp 3 run under o and checks its sections
// come in the order -deploy both -scaling both gives them: local strong,
// local weak, remote strong, remote weak.
func rtSections(t *testing.T, name, title string, o Options) []metrics.Table {
	t.Helper()
	var tabs []metrics.Table
	for i, s := range run(t, name, o) {
		d, sc := []deployment{deployLocal, deployRemote}[i/2], []scaling{scalingStrong, scalingWeak}[i%2]
		if want := fmt.Sprintf("%s (%s, %s)", title, d, sc); s.Title != want || len(s.Tables) != 1 {
			t.Fatalf("section %d: %q with %d tables, want %q with one", i, s.Title, len(s.Tables), want)
		}
		tabs = append(tabs, s.Tables[0])
	}
	if len(tabs) != 4 {
		t.Fatalf("%d sections, want 4", len(tabs))
	}
	return tabs
}

// TestExp2LocalNoopShape reads Fig. 4 off the 64-request Exp 2 run: the
// NOOP model does no inference, so in every local row communication
// dominates it; a lone client on the node pays 0.010 ms a round trip, and
// contending clients about 0.097 ms.
func TestExp2LocalNoopShape(t *testing.T) {
	tabs := rtSections(t, "2", "Experiment 2", Options{Requests: 64})
	for _, tab := range tabs[:2] {
		if !strings.Contains(tab.Title, "Fig. 4") {
			t.Errorf("local table %q is not Fig. 4", tab.Title)
		}
		comm, infer := means(t, tab, "communication"), means(t, tab, "inference")
		for i := range comm {
			if comm[i] <= infer[i] {
				t.Errorf("%s: communication %.3f ms !> inference %.3f ms", tab.Rows[i][0], comm[i], infer[i])
			}
		}
	}
	checkColumn(t, tabs[1], "communication", "0.010 ± 0.001", "0.067 ± 0.058", "0.096 ± 0.052", "0.098 ± 0.054", "0.096 ± 0.053")
	checkColumn(t, tabs[1], "inference", "0.000 ± 0.000", "0.000 ± 0.000", "0.000 ± 0.000", "0.000 ± 0.000", "0.000 ± 0.000")
}

// TestExp2RemoteSlowerThanLocal reads Figs. 4 and 5 off the 64-request Exp 2
// run: the paper's remote hop (0.47 ms against 0.063 ms local) makes every
// remote round trip at least 0.4 ms and 1.3x slower than the local one at
// the same sweep point.
func TestExp2RemoteSlowerThanLocal(t *testing.T) {
	tabs := rtSections(t, "2", "Experiment 2", Options{Requests: 64})
	for i, local := range tabs[:2] {
		remote := tabs[2+i]
		if !strings.Contains(remote.Title, "Fig. 5") {
			t.Errorf("remote table %q is not Fig. 5", remote.Title)
		}
		lc, rc := means(t, local, "communication"), means(t, remote, "communication")
		for j := range lc {
			if rc[j]-lc[j] < 0.4 || rc[j] < 1.3*lc[j] {
				t.Errorf("%s: remote communication %.3f ms not clearly above local %.3f ms", local.Rows[j][0], rc[j], lc[j])
			}
		}
	}
	checkColumn(t, tabs[3], "communication", "0.929 ± 0.049", "0.937 ± 0.056", "0.936 ± 0.052", "0.945 ± 0.055", "0.938 ± 0.057")
}

// TestExp3InferenceDominates reads Fig. 6 off the Exp 3 run: in the
// uncontended weak-scaling sweep llama-8b inference takes seconds and dwarfs
// the millisecond remote hop.
func TestExp3InferenceDominates(t *testing.T) {
	tab := rtSections(t, "3", "Experiment 3", Options{})[3]
	if !strings.Contains(tab.Title, "Fig. 6") {
		t.Errorf("table %q is not Fig. 6", tab.Title)
	}
	checkColumn(t, tab, "communication", "0.001 ± 0.000", "0.001 ± 0.000", "0.001 ± 0.000", "0.001 ± 0.000", "0.001 ± 0.000")
	checkColumn(t, tab, "inference", "2.303 ± 0.411", "2.678 ± 0.467", "2.550 ± 0.746", "2.674 ± 0.804", "2.786 ± 0.728")
	comm, infer := means(t, tab, "communication"), means(t, tab, "inference")
	for i := range infer {
		if infer[i] < 5*comm[i] || infer[i] < 0.5 {
			t.Errorf("%s: inference %.3f s does not dominate communication %.3f s", tab.Rows[i][0], infer[i], comm[i])
		}
	}
}

// TestExp3StrongScalingQueueing reads the queueing of Fig. 6 off the Exp 3
// run: 16 clients on single-threaded services wait for them, less with every
// doubling of the services, not at all once each client has its own.
func TestExp3StrongScalingQueueing(t *testing.T) {
	tab := rtSections(t, "3", "Experiment 3", Options{})[0]
	checkColumn(t, tab, "service", "39.571 ± 8.728", "17.503 ± 3.939", "7.719 ± 2.105", "2.498 ± 0.913", "0.000 ± 0.000")
	service := means(t, tab, "service")
	for i := 1; i < len(service); i++ {
		if service[i] >= service[i-1] {
			t.Errorf("%s: service time %.3f s, not below %.3f s at %s", tab.Rows[i][0], service[i], service[i-1], tab.Rows[i-1][0])
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/xproc"
)

// TestMain lets the test binary double as the tcp_* workloads' pilot agent:
// xproc.Spawn re-executes os.Executable().
func TestMain(m *testing.M) {
	xproc.MaybeRunAgent()
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesSpec pins the repository's BENCHMARK.json to the
// tables in spec.go and the tables to the builder contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `rpbench -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if measureFor(w.Name) == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower is better")
	}
	for workload, terms := range budgets {
		for _, term := range terms {
			if !seen[term.Metric] {
				t.Errorf("budget of %s names unknown metric %s", workload, term.Metric)
			}
		}
	}
}

// TestSmoke runs every workload at 1/100 size, untraced and traced, with
// every correctness check on.
func TestSmoke(t *testing.T) {
	cfg := runConfig{Seed: 7, Smoke: true, TmpDir: t.TempDir()}
	if err := smoke(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestListNamesEverything(t *testing.T) {
	out := listing()
	for _, w := range workloads {
		if !strings.Contains(out, w.Name) {
			t.Errorf("-list omits workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(out, m.Name) || !strings.Contains(out, m.Unit) {
			t.Errorf("-list omits metric %s or its unit", m.Name)
		}
	}
}

// TestCompareRoundTrip writes two result files and checks each verdict the
// comparison can give.
func TestCompareRoundTrip(t *testing.T) {
	// ops_per_s is higher-is-better with a 10% bound... whatever the bound
	// is, scale the cases from it.
	var ops metricDef
	for _, m := range endToEnd {
		if m.Name == "ops_per_s" {
			ops = m
		}
	}
	mk := func(values map[string][]float64) *resultsFile {
		rf := &resultsFile{Host: hostInfo{Commit: "test"}}
		for workload, vs := range values {
			for i, v := range vs {
				r := &Result{Workload: workload, Seed: uint64(i), Correct: true, Metrics: map[string]Metric{}}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = Metric{Value: 100, Unit: m.Unit}
				}
				r.Metrics["ops_per_s"] = Metric{Value: v, Unit: ops.Unit}
				rf.Runs = append(rf.Runs, r)
			}
		}
		return rf
	}
	steady := []float64{1000, 1001, 999, 1000, 1002}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{600, 1400, 800, 1200, 1000} // spread far above any bound
	parent := mk(map[string][]float64{
		"campaign_steady": steady, "campaign_batched": steady, "tcp_small": steady, "tcp_large": noisy,
		"task_journal": steady, "task_recover": steady,
	})
	change := mk(map[string][]float64{
		"campaign_steady":  steady,
		"campaign_batched": scaled(1 + 2*ops.Bound),
		"tcp_small":        scaled(1 - 2*ops.Bound),
		"tcp_large":        noisy,
		"task_journal":     scaled(1 + ops.Bound/4),
		"task_recover":     scaled(1 - ops.Bound/4),
	})
	dir := t.TempDir()
	write := func(name string, rf *resultsFile) string {
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("parent.json", parent), write("change.json", change)

	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 2x-bound drop in ops_per_s was not reported as worse")
	}
	want := map[string]string{
		"campaign_steady": "same", "campaign_batched": "better", "tcp_small": "worse",
		"tcp_large": "unresolved", "task_journal": "same", "task_recover": "same",
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[1] != "ops_per_s" {
			continue
		}
		if got := f[len(f)-1]; got != want[f[0]] {
			t.Errorf("%s ops_per_s: verdict %s, want %s\n%s", f[0], got, want[f[0]], line)
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Errorf("no ops_per_s row for %v", want)
	}

	out.Reset()
	if worse, err := compareFiles(&out, a, a); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v", worse, err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

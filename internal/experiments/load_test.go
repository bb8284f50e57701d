package experiments

import (
	"slices"
	"testing"
)

// TestLoadMatrixExactCounts reads the full catalog at reduced scale, as
// rpexp prints it: every scenario's row conserves requests with zero
// failures, the steady scenario runs its 4 HPC tasks (one per 1,000
// requests), the churn scenario shows exactly its two re-placements, and
// every latency quantile and sketch footprint replays.
func TestLoadMatrixExactCounts(t *testing.T) {
	tab := run(t, "load", Options{Requests: 4000, Seed: 7})[0].Tables[0]
	if want := "Open-loop load matrix — exact-count campaigns on the virtual clock"; tab.Title != want {
		t.Errorf("title %q, want %q", tab.Title, want)
	}
	if want := []string{"scenario", "offered", "completed", "failed", "tasks",
		"repl", "p50", "p99", "max", "sim time", "wall", "sketch"}; !slices.Equal(tab.Header, want) {
		t.Errorf("header %v, want %v", tab.Header, want)
	}
	checkRows(t, tab, [][]string{
		{"steady", "4000", "4000", "0", "4", "0", "154.9µs", "209.1µs", "243µs", "1.987s", "4976B"},
		{"diurnal", "4000", "4000", "0", "0", "0", "154.9µs", "209.1µs", "243µs", "1.667s", "4976B"},
		{"hotspot", "4000", "4000", "0", "0", "0", "154.9µs", "209.1µs", "234.6µs", "1.987s", "4960B"},
		{"straggler", "4000", "4000", "0", "0", "0", "164.4µs", "6.924ms", "10.858ms", "4.967s", "6488B"},
		{"churn", "4000", "4000", "0", "0", "2", "154.9µs", "209.1µs", "243.6µs", "1.987s", "4976B"},
	})
}

// TestLoadMatrixFilter exercises the scenario filter: it keeps catalog
// order, and a filter matching nothing is an error Validate reports too.
func TestLoadMatrixFilter(t *testing.T) {
	scenarios, err := Options{Scenarios: "hotspot,steady"}.scenarios()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sc := range scenarios {
		names = append(names, sc.Name)
	}
	if !slices.Equal(names, []string{"steady", "hotspot"}) {
		t.Errorf("filtered scenarios %v; want steady, hotspot", names)
	}
	o := Options{Scenarios: "nonexistent"}
	if _, err := o.scenarios(); err == nil || o.Validate() == nil {
		t.Error("filter matching nothing should error")
	}
}

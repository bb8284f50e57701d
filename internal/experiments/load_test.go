package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestLoadMatrixExactCounts runs the full catalog at reduced scale and
// pins the matrix as rpexp prints it: every scenario's row conserves
// requests with zero failures, and the churn scenario shows exactly its
// two re-placements.
func TestLoadMatrixExactCounts(t *testing.T) {
	tables, err := runLoad(context.Background(), Options{Requests: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if want := "Open-loop load matrix — exact-count campaigns on the virtual clock"; tab.Title != want {
		t.Errorf("title %q, want %q", tab.Title, want)
	}
	if want := []string{"scenario", "offered", "completed", "failed", "tasks",
		"repl", "p50", "p99", "max", "sim time", "wall", "sketch"}; !slices.Equal(tab.Header, want) {
		t.Errorf("header %v, want %v", tab.Header, want)
	}
	scenarios := column(t, tab, "scenario")
	if want := []string{"steady", "diurnal", "hotspot", "straggler", "churn"}; !slices.Equal(scenarios, want) {
		t.Fatalf("scenarios %v, want %v", scenarios, want)
	}
	offered, completed, failed := column(t, tab, "offered"), column(t, tab, "completed"), column(t, tab, "failed")
	tasks, repl, sketch := column(t, tab, "tasks"), column(t, tab, "repl"), column(t, tab, "sketch")
	for i, sc := range scenarios {
		if offered[i] != "4000" || completed[i] != "4000" || failed[i] != "0" {
			t.Errorf("%s: offered/completed/failed = %s/%s/%s, want 4000/4000/0", sc, offered[i], completed[i], failed[i])
		}
		wantRepl := "0"
		if sc == "churn" {
			wantRepl = "2"
		}
		if repl[i] != wantRepl {
			t.Errorf("%s: %s replacements, want %s", sc, repl[i], wantRepl)
		}
		wantTasks := "0"
		if sc == "steady" {
			wantTasks = "4" // 4000 requests / TaskEvery 1000
		}
		if tasks[i] != wantTasks {
			t.Errorf("%s: %s tasks done, want %s", sc, tasks[i], wantTasks)
		}
		var bytes int
		if _, err := fmt.Sscanf(sketch[i], "%dB", &bytes); err != nil || bytes <= 0 || bytes > 64<<10 {
			t.Errorf("%s: sketch footprint %q outside (0, 64KiB]", sc, sketch[i])
		}
	}
}

func TestLoadTableRender(t *testing.T) {
	tables, err := runLoad(context.Background(), Options{Requests: 200, Seed: 3, Scenarios: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].Render()
	for _, want := range []string{"Open-loop load matrix", "scenario", "offered", "p99", "sketch", "steady", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestLoadMatrixFilter exercises the scenario filter: it keeps catalog
// order, and a filter matching nothing is an error.
func TestLoadMatrixFilter(t *testing.T) {
	tables, err := runLoad(context.Background(), Options{Requests: 500, Scenarios: "hotspot,steady"})
	if err != nil {
		t.Fatal(err)
	}
	if got := column(t, tables[0], "scenario"); !slices.Equal(got, []string{"steady", "hotspot"}) {
		t.Errorf("filtered scenarios %v; want steady, hotspot", got)
	}
	if _, err := runLoad(context.Background(), Options{Scenarios: "nonexistent"}); err == nil {
		t.Error("filter matching nothing should error")
	}
}

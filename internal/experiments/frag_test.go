package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// fragRows runs the fragmentation workload on the hetero campus under
// strict and best-fit placement and returns both rows.
func fragRows(t *testing.T, churn bool) (strict, best fragRow) {
	t.Helper()
	o := Options{Platform: defaultPlatform, Seed: fragSeed, Churn: churn}
	shapes, thin, fat, err := shapesOf(o.Platform, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, g := range shapes {
		nodes += g.Count
	}
	var rows [2]fragRow
	for i, pol := range []string{"strict", "best-fit"} {
		if rows[i], err = fragPoint(context.Background(), o, pol, nodes, thin, fat); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
	return rows[0], rows[1]
}

// checkFragRow compares a row with its expected counts and utilisations,
// the latter as the table prints them.
func checkFragRow(t *testing.T, policy string, got, want fragRow) {
	t.Helper()
	util := func(r fragRow) string { return fmt.Sprintf("%.3f/%.3f", r.CoreUtil, r.GPUUtil) }
	if got.SmallGranted != want.SmallGranted || got.LargeGranted != want.LargeGranted ||
		got.Waiting != want.Waiting || util(got) != util(want) {
		t.Errorf("%s: %+v, want %+v", policy, got, want)
	}
}

// TestFragBestFitBeatsFirstFitOnHeteroCampus runs the fragmentation
// ablation end to end on the catalog's mixed platform (32 fat, 96 thin
// nodes): under identical workloads best-fit grants every large
// (whole-fat-node) task and leaves nothing waiting, while first-fit lets 96
// thin-shaped smalls fragment 12 fat nodes (8×16c each). Neither policy
// loses a small grant.
func TestFragBestFitBeatsFirstFitOnHeteroCampus(t *testing.T) {
	strict, best := fragRows(t, false)
	checkFragRow(t, "strict", strict, fragRow{SmallGranted: 96, LargeGranted: 20, Waiting: 12, CoreUtil: 0.727, GPUUtil: 0.625})
	checkFragRow(t, "best-fit", best, fragRow{SmallGranted: 96, LargeGranted: 32, CoreUtil: 1, GPUUtil: 1})
}

// TestFragChurnBestFitWinSurvivesTurnover runs the steady-state variant:
// 48 permanent smalls, 48 transient ones, then 2 waves of 24 arrivals
// behind the larges. First-fit keeps 6 fat nodes pinned by permanent
// holders, so 26 of 32 larges run once the transients drain, and its
// ungrantable large head blocks every arriving wave. Best-fit still runs
// every large and every arriving small.
func TestFragChurnBestFitWinSurvivesTurnover(t *testing.T) {
	strict, best := fragRows(t, true)
	checkFragRow(t, "strict", strict, fragRow{SmallGranted: 96, LargeGranted: 26, Waiting: 54, CoreUtil: 0.727, GPUUtil: 0.8125})
	checkFragRow(t, "best-fit", best, fragRow{SmallGranted: 144, LargeGranted: 32, CoreUtil: 0.864, GPUUtil: 1})
}

func TestFragTableRendering(t *testing.T) {
	tables, err := runFrag(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].Render()
	for _, want := range []string{"hetero", "32×128c/16g + 96×16c/0g", "strict", "best-fit", "20/32", "32/32"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragmentation table missing %q:\n%s", want, out)
		}
	}
}

package experiments

import (
	"context"
	"slices"
	"testing"

	"repro/internal/router"
)

// TestRouteCapacityFitRunsWhatRoundRobinWedges runs the routing ablation
// end to end at reduced scale: on the hetero campus split into a fat and
// a thin pilot, blind round-robin dispatch sends every second
// whole-fat-node task to the thin pilot — where no node shape can ever
// run it — while capacity-fit completes all of them. The outcome is
// deterministic: round-robin alternates pilots in submission order.
func TestRouteCapacityFitRunsWhatRoundRobinWedges(t *testing.T) {
	shapes, thin, fat, err := shapesOf(defaultPlatform, true)
	if err != nil {
		t.Fatal(err)
	}
	w := newRouteWorkload(shapes, thin, fat, 4, 8)
	o := Options{Platform: defaultPlatform, Seed: routeSeed}
	rows, err := routeRows(context.Background(), o, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Round-robin: fat tasks at even submission positions land on the fat
	// pilot (attached first), odd positions on the thin pilot and fail.
	// Capacity-fit: every shape-constrained task reaches the only pilot
	// that can ever run it.
	want := []routeRow{
		{Router: router.NameRoundRobin, FatDone: 2, FatFailed: 2, ThinDone: 8},
		{Router: router.NameCapacityFit, FatDone: 4, ThinDone: 8},
	}
	for i, row := range rows {
		if row != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
	}
}

func TestRouteTableRendering(t *testing.T) {
	shapes, thin, fat, err := shapesOf(defaultPlatform, true)
	if err != nil {
		t.Fatal(err)
	}
	w := newRouteWorkload(shapes, thin, fat, 32, 96)
	if got, want := w.String(), "32 fat tasks (128c/16g) + 96 thin tasks (16c)"; got != want {
		t.Errorf("workload %q, want %q", got, want)
	}
	for _, tc := range []struct {
		row  routeRow
		want []string
	}{
		{routeRow{Router: router.NameRoundRobin, FatDone: 16, FatFailed: 16, ThinDone: 96}, []string{"16/32", "16", "96/96", "0", "0"}},
		{routeRow{Router: router.NameCapacityFit, FatDone: 32, ThinDone: 96}, []string{"32/32", "0", "96/96", "0", "0"}},
	} {
		if got := tc.row.cells(w); !slices.Equal(got, tc.want) {
			t.Errorf("%s cells %v, want %v", tc.row.Router, got, tc.want)
		}
	}
}

// TestRouteRejectsHomogeneousPlatform pins the guard: mismatched pilots
// need a mixed platform.
func TestRouteRejectsHomogeneousPlatform(t *testing.T) {
	if _, err := runRoute(context.Background(), Options{Platform: "delta"}); err == nil {
		t.Fatal("the route ablation accepted a homogeneous platform")
	}
}

package experiments

import (
	"context"
	"testing"
)

// TestRouteCapacityFitRunsWhatRoundRobinWedges reads the routing ablation:
// on the hetero campus split into a fat and a thin pilot, blind round-robin
// dispatch sends every second whole-fat-node task to the thin pilot — where
// no node shape can ever run it — while capacity-fit completes all of them.
// The outcome is deterministic: round-robin alternates pilots in submission
// order, so the 16 fat tasks at even positions land on the fat pilot
// (attached first) and the 16 at odd positions fail.
func TestRouteCapacityFitRunsWhatRoundRobinWedges(t *testing.T) {
	checkRows(t, run(t, "route", Options{})[0].Tables[0], [][]string{
		{"round-robin", "16/32", "16", "96/96", "0", "0", "0"},
		{"capacity-fit", "32/32", "0", "96/96", "0", "0", "0"},
	})
}

// TestRouteRejectsHomogeneousPlatform pins the guard: mismatched pilots
// need a mixed platform.
func TestRouteRejectsHomogeneousPlatform(t *testing.T) {
	if _, err := runRoute(context.Background(), Options{Platform: "delta"}); err == nil {
		t.Fatal("the route ablation accepted a homogeneous platform")
	}
}

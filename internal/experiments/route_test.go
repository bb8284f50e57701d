package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestRouteCapacityFitRunsWhatRoundRobinWedges runs the routing ablation
// end to end at reduced scale: on the hetero campus split into a fat and
// a thin pilot, blind round-robin dispatch sends every second
// whole-fat-node task to the thin pilot — where no node shape can ever
// run it — while capacity-fit completes all of them. The outcome is
// deterministic: round-robin alternates pilots in submission order.
func TestRouteCapacityFitRunsWhatRoundRobinWedges(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultRouteConfig()
	cfg.FatTasks = 4
	cfg.ThinTasks = 8
	cfg.Routers = []string{"round-robin", "capacity-fit"}
	res, err := RunRoute(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	rr, cf := res.Rows[0], res.Rows[1]
	if rr.Router != "round-robin" || cf.Router != "capacity-fit" {
		t.Fatalf("row routers = %q/%q", rr.Router, cf.Router)
	}
	// Round-robin: fat tasks at even submission positions land on the fat
	// pilot (attached first), odd positions on the thin pilot and fail.
	if rr.FatDone != 2 || rr.FatFailed != 2 {
		t.Fatalf("round-robin fat outcome = %d done / %d failed, want 2/2", rr.FatDone, rr.FatFailed)
	}
	if rr.ThinDone != cfg.ThinTasks {
		t.Fatalf("round-robin thin done = %d, want %d", rr.ThinDone, cfg.ThinTasks)
	}
	// Capacity-fit: every shape-constrained task reaches the only pilot
	// that can ever run it.
	if cf.FatDone != cfg.FatTasks || cf.FatFailed != 0 {
		t.Fatalf("capacity-fit fat outcome = %d done / %d failed, want %d/0",
			cf.FatDone, cf.FatFailed, cfg.FatTasks)
	}
	if cf.ThinDone != cfg.ThinTasks || cf.Rejected != 0 {
		t.Fatalf("capacity-fit thin done = %d rejected = %d", cf.ThinDone, cf.Rejected)
	}
}

// TestRouteRejectsHomogeneousPlatform pins the guard: mismatched pilots
// need a mixed platform.
func TestRouteRejectsHomogeneousPlatform(t *testing.T) {
	cfg := DefaultRouteConfig()
	cfg.Platform = "delta"
	if _, err := RunRoute(context.Background(), cfg); err == nil {
		t.Fatal("RunRoute accepted a homogeneous platform")
	}
}

func TestRouteTableRendering(t *testing.T) {
	res := &RouteResult{
		Cfg:             RouteConfig{Platform: "hetero", FatTasks: 32, ThinTasks: 96},
		FatPilotShapes:  "32×128c/16g",
		ThinPilotShapes: "96×16c/0g",
		FatCores:        128, FatGPUs: 16, ThinCores: 16,
		Rows: []RouteRow{
			{Router: "round-robin", FatDone: 16, FatFailed: 16, ThinDone: 96},
			{Router: "capacity-fit", FatDone: 32, ThinDone: 96},
		},
	}
	out := res.Table().Render()
	for _, want := range []string{"round-robin", "capacity-fit", "16/32", "32/32", "96/96"} {
		if !strings.Contains(out, want) {
			t.Fatalf("route table missing %q:\n%s", want, out)
		}
	}
}

// TestFragChurnBestFitWinSurvivesTurnover runs the steady-state
// fragmentation variant at reduced scale. With 24 smalls (12 permanent,
// 12 transient) the end state is deterministic on the hetero campus:
// first-fit pins fat nodes 0-1 fragmented forever (node 1 keeps 4
// permanent holders), so 30 of 32 larges run once the transient releases
// drain — the turnover hands back most, but not all, of best-fit's
// non-churn win (29/32) — while best-fit still runs every large AND
// every arriving small.
func TestFragChurnBestFitWinSurvivesTurnover(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultFragConfig()
	cfg.Smalls = 24
	cfg.Churn = true
	res, err := RunFrag(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	strict, best := res.Rows[0], res.Rows[1]
	total := res.Cfg.TotalSmalls() // 24 + 2 waves × 6
	if total != 36 {
		t.Fatalf("TotalSmalls = %d, want 36", total)
	}
	if strict.LargeGranted != 30 {
		t.Fatalf("strict granted %d larges under churn, want 30 (2 fat nodes pinned by permanent holders)",
			strict.LargeGranted)
	}
	if best.LargeGranted != res.Cfg.Larges {
		t.Fatalf("best-fit granted %d larges under churn, want all %d", best.LargeGranted, res.Cfg.Larges)
	}
	// Under strict the ungrantable large head blocks every arriving wave;
	// best-fit keeps the arrivals flowing through the thin partition.
	if strict.SmallGranted != cfg.Smalls {
		t.Fatalf("strict small grants = %d, want %d (waves blocked behind the large head)",
			strict.SmallGranted, cfg.Smalls)
	}
	if best.SmallGranted != total {
		t.Fatalf("best-fit small grants = %d, want all %d arrivals", best.SmallGranted, total)
	}
	if best.Waiting != 0 {
		t.Fatalf("best-fit waiting = %d, want 0", best.Waiting)
	}
}

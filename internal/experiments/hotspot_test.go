package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// hotspotP99s runs the picker campaigns and returns each picker's p99.
func hotspotP99s(t *testing.T, requests int) (map[string]time.Duration, [][]string) {
	t.Helper()
	tab, err := hotspotCampaigns(context.Background(), Options{Requests: requests, Seed: hotspotSeed})
	if err != nil {
		t.Fatal(err)
	}
	offered, completed, failed := column(t, tab, "offered"), column(t, tab, "completed"), column(t, tab, "failed")
	p99s := map[string]time.Duration{}
	for i, bal := range column(t, tab, "balancer") {
		if want := fmt.Sprint(requests); offered[i] != want || completed[i] != want || failed[i] != "0" {
			t.Errorf("%s: offered/completed/failed = %s/%s/%s, want %s/%s/0", bal, offered[i], completed[i], failed[i], want, want)
		}
		p99, err := time.ParseDuration(column(t, tab, "p99")[i])
		if err != nil {
			t.Fatal(err)
		}
		p99s[bal] = p99
	}
	if len(p99s) != len(hotspotBalancers) {
		t.Fatalf("got %d balancer rows, want %d", len(p99s), len(hotspotBalancers))
	}
	return p99s, tab.Rows
}

// TestHotspotAblationAcceptance drives the full ablation once and checks
// the acceptance contrast: under the identical 80%-skewed seeded stream,
// load-aware p2c must beat blind round-robin strictly at p99 and stay
// within a small band of the full-scan least-loaded oracle — at two
// probes per pick instead of a member-set scan.
func TestHotspotAblationAcceptance(t *testing.T) {
	p99, _ := hotspotP99s(t, 8000)
	if p99["p2c"] >= p99["round-robin"] {
		t.Errorf("p2c p99 %v not strictly better than blind round-robin %v", p99["p2c"], p99["round-robin"])
	}
	if p99["p2c"] > 2*p99["least-loaded"] {
		t.Errorf("p2c p99 %v outside 2x band of least-loaded oracle %v", p99["p2c"], p99["least-loaded"])
	}

	warm, err := hotspotFailover(context.Background(), hotspotSeed, failoverWarm)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := hotspotFailover(context.Background(), hotspotSeed, failoverCold)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Generations != 1 {
		t.Errorf("warm failover cost %d generations, want exactly 1", warm.Generations)
	}
	if warm.Promotions != 1 || warm.Replacements != 0 {
		t.Errorf("warm failover: promotions=%d replacements=%d, want 1/0", warm.Promotions, warm.Replacements)
	}
	if cold.Promotions != 0 || cold.Replacements != 1 {
		t.Errorf("cold failover: promotions=%d replacements=%d, want 0/1", cold.Promotions, cold.Replacements)
	}
	if warm.Latency != 0 {
		t.Errorf("warm failover latency %v, want 0: a promotion is one publish, no simulated time", warm.Latency)
	}
	if warm.Latency >= cold.Latency {
		t.Errorf("warm failover latency %v not below cold re-bootstrap %v", warm.Latency, cold.Latency)
	}
}

// TestHotspotAblationDeterministicReplay pins the ablation to exact replay:
// the same options must reproduce every count and percentile the picker
// matrix prints, and both failovers to the nanosecond.
func TestHotspotAblationDeterministicReplay(t *testing.T) {
	withoutWall := func(rows [][]string) [][]string {
		out := make([][]string, len(rows))
		for i, row := range rows {
			out[i] = row[:len(row)-1] // wall time is the one legitimately varying cell
		}
		return out
	}
	_, a := hotspotP99s(t, 3000)
	_, b := hotspotP99s(t, 3000)
	if !slices.EqualFunc(withoutWall(a), withoutWall(b), slices.Equal) {
		t.Errorf("picker matrix replay diverged:\n  %v\n  %v", a, b)
	}
	for _, mode := range []string{failoverWarm, failoverCold} {
		fa, errA := hotspotFailover(context.Background(), hotspotSeed, mode)
		fb, errB := hotspotFailover(context.Background(), hotspotSeed, mode)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if fa != fb {
			t.Errorf("%s failover diverged:\n  %+v\n  %+v", mode, fa, fb)
		}
	}
}

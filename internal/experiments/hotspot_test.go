package experiments

import (
	"context"
	"slices"
	"testing"
	"time"
)

// testHotspotConfig is the test-scale parameterization: the figure shape
// at a quarter of the request budget so the three campaign points and the
// two failover sessions run in a few seconds of wall time.
func testHotspotConfig() HotspotConfig {
	return HotspotConfig{
		Requests: 8000,
		Interval: 250 * time.Millisecond,
	}
}

// TestHotspotAblationAcceptance drives the full ablation once and checks
// the acceptance contrast: under the identical 80%-skewed seeded stream,
// load-aware p2c must beat blind round-robin strictly at p99 and stay
// within a small band of the full-scan least-loaded oracle — at two
// probes per pick instead of a member-set scan.
func TestHotspotAblationAcceptance(t *testing.T) {
	ctx := context.Background()
	res, err := RunHotspot(ctx, testHotspotConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d balancer rows, want 3", len(res.Rows))
	}
	rows := map[string]HotspotRow{}
	for _, row := range res.Rows {
		rows[row.Balancer] = row
		if row.Offered != int64(res.Cfg.Requests) {
			t.Errorf("%s offered %d, want %d", row.Balancer, row.Offered, res.Cfg.Requests)
		}
		if row.Completed+row.Failed != row.Offered {
			t.Errorf("%s: completed %d + failed %d != offered %d",
				row.Balancer, row.Completed, row.Failed, row.Offered)
		}
		t.Logf("%-12s p50=%v p99=%v max=%v failed=%d", row.Balancer, row.P50, row.P99, row.Max, row.Failed)
	}
	p2c, rr, least := rows["p2c"], rows["round-robin"], rows["least-loaded"]
	if p2c.P99 >= rr.P99 {
		t.Errorf("p2c p99 %v not strictly better than blind round-robin %v", p2c.P99, rr.P99)
	}
	if p2c.P99 > 2*least.P99 {
		t.Errorf("p2c p99 %v outside 2x band of least-loaded oracle %v", p2c.P99, least.P99)
	}

	if len(res.Failover) != 2 {
		t.Fatalf("got %d failover rows, want 2", len(res.Failover))
	}
	fo := map[string]FailoverRow{}
	for _, row := range res.Failover {
		fo[row.Mode] = row
		t.Logf("%-13s latency=%v generations=%d promotions=%d replacements=%d",
			row.Mode, row.Latency, row.Generations, row.Promotions, row.Replacements)
	}
	warm, cold := fo[FailoverWarm], fo[FailoverCold]
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
// the same config must reproduce every count and percentile of the campaign
// half, and both failover rows to the nanosecond.
func TestHotspotAblationDeterministicReplay(t *testing.T) {
	ctx := context.Background()
	cfg := testHotspotConfig()
	cfg.Requests = 3000

	a, err := RunHotspot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHotspot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		ra.Wall, rb.Wall = 0, 0 // wall time is the one legitimately varying field
		if ra != rb {
			t.Errorf("balancer %s replay diverged:\n  %+v\n  %+v", ra.Balancer, ra, rb)
		}
	}
	if len(a.Failover) != 2 || !slices.Equal(a.Failover, b.Failover) {
		t.Errorf("failover rows diverged:\n  %+v\n  %+v", a.Failover, b.Failover)
	}
}

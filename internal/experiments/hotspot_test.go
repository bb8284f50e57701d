package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestHotspotAblationAcceptance reads the acceptance contrast at half the
// default request budget: under the identical 80%-skewed seeded stream,
// load-aware p2c beats blind round-robin strictly at p99 and stays within a
// 2x band of the full-scan least-loaded oracle — at two probes per pick
// instead of a member-set scan. A warm failover is one promotion and one
// generation at no simulated cost; a cold one re-bootstraps the service.
// The rows are exact at GOMAXPROCS 1, 2 and 8: a pick reads the servers'
// queues as they stand, and no host order reaches them.
func TestHotspotAblationAcceptance(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("GOMAXPROCS=", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			tabs := run(t, "hotspot", Options{Requests: 8000})[0].Tables
			checkRows(t, tabs[0], [][]string{
				{"p2c", "8000", "8000", "0", "4.116ms", "11.416ms", "17.19ms", "9.99s"},
				{"round-robin", "8000", "8000", "0", "4.035ms", "13.667ms", "23.274ms", "9.994s"},
				{"least-loaded", "8000", "8000", "0", "3.8ms", "9.924ms", "16.24ms", "9.991s"},
			})
			p99 := map[string]time.Duration{}
			for i, cell := range column(t, tabs[0], "p99") {
				d, err := time.ParseDuration(cell)
				if err != nil {
					t.Fatal(err)
				}
				p99[tabs[0].Rows[i][0]] = d
			}
			if p99["p2c"] >= p99["round-robin"] || p99["p2c"] > 2*p99["least-loaded"] {
				t.Errorf("p99: p2c %v, round-robin %v, least-loaded %v; want p2c below round-robin and within 2x of least-loaded",
					p99["p2c"], p99["round-robin"], p99["least-loaded"])
			}
			checkRows(t, tabs[1], [][]string{
				{failoverWarm, "0s", "1", "1", "0"},
				{failoverCold, "2.057s", "1", "0", "1"},
			})
		})
	}
}

// TestHotspotAblationDeterministicReplay pins the ablation to exact replay:
// at 3000 requests a picker, a second execution under the same options
// reproduces every count and percentile of the picker matrix, and each
// failover, run twice more, replays to the nanosecond.
func TestHotspotAblationDeterministicReplay(t *testing.T) {
	ctx := context.Background()
	o := Options{Requests: 3000}
	again, err := entry(t, "hotspot").Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range run(t, "hotspot", o)[0].Tables {
		if a, b := rows(tab), rows(again[0].Tables[i]); !slices.EqualFunc(a, b, slices.Equal) {
			t.Errorf("%s: replay diverged:\n  %q\n  %q", tab.Title, a, b)
		}
	}
	for _, mode := range []string{failoverWarm, failoverCold} {
		fa, errA := hotspotFailover(ctx, hotspotSeed, mode)
		fb, errB := hotspotFailover(ctx, hotspotSeed, mode)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if fa != fb {
			t.Errorf("%s failover diverged:\n  %+v\n  %+v", mode, fa, fb)
		}
	}
}

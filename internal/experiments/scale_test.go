package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestScaleAblation reads the serving-scalability ablation at 4000 requests
// a sweep campaign (the diurnal pair keeps its 48000) and pins what
// replays: every row's exact counts and the autoscaler's peak of 4
// replicas. Throughput and quantiles are checked as contrasts only —
// batched serving at least doubles the saturated single worker's
// throughput, and the autoscaler cuts the fixed replica's p99 — because
// the batched and autoscaled campaigns do not replay them exactly
// (bench/README.md hazard 3: batched sketches do not replay exactly).
func TestScaleAblation(t *testing.T) {
	tab := run(t, "scale", Options{Requests: 4000})[0].Tables[0]
	configs := column(t, tab, "config")
	want := []string{
		"single@250", "concurrent@250", "batched@250",
		"single@1000", "concurrent@1000", "batched@1000",
		"single@8000", "concurrent@8000", "batched@8000",
		"diurnal-fixed", "diurnal-autoscaled",
	}
	if !slices.Equal(configs, want) {
		t.Fatalf("configs %v, want %v", configs, want)
	}
	offered, completed, failed := column(t, tab, "offered"), column(t, tab, "completed"), column(t, tab, "failed")
	peak := column(t, tab, "peak reps")
	row := map[string]int{}
	for i, c := range configs {
		row[c] = i
		n := "4000"
		if strings.HasPrefix(c, "diurnal") {
			n = fmt.Sprint(scaleDiurnalRequests)
		}
		if offered[i] != n || completed[i] != n || failed[i] != "0" {
			t.Errorf("%s: offered/completed/failed = %s/%s/%s, want %s/%s/0", c, offered[i], completed[i], failed[i], n, n)
		}
		wantPeak := "1"
		if c == "diurnal-autoscaled" {
			wantPeak = "4"
		}
		if peak[i] != wantPeak {
			t.Errorf("%s: peak replicas %s, want %s", c, peak[i], wantPeak)
		}
	}

	throughput := func(c string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(column(t, tab, "throughput")[row[c]], "/s"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if single, batched := throughput("single@8000"), throughput("batched@8000"); batched < 2*single {
		t.Errorf("batched throughput %.0f/s not 2x the saturated single worker's %.0f/s", batched, single)
	}
	p99 := func(c string) time.Duration {
		d, err := time.ParseDuration(column(t, tab, "p99")[row[c]])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if fixed, scaled := p99("diurnal-fixed"), p99("diurnal-autoscaled"); scaled >= fixed {
		t.Errorf("autoscaled p99 %v not under the fixed replica's %v", scaled, fixed)
	}
}

package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// runLoad executes the open-loop load matrix: the loadgen catalog (steady,
// diurnal, hotspot, straggler, churn), each scenario one campaign on a
// fresh session over its own virtual clock. -scenarios keeps the scenarios
// whose name contains one of its comma-separated substrings; -requests and
// -seed override every scenario's own.
func runLoad(ctx context.Context, o Options) ([]metrics.Table, error) {
	scenarios := loadgen.Catalog()
	if o.Scenarios != "" {
		var keep []loadgen.Scenario
		for _, sc := range scenarios {
			for _, pat := range splitList(o.Scenarios) {
				if strings.Contains(sc.Name, pat) {
					keep = append(keep, sc)
					break
				}
			}
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("experiments: load: filter %q matches no scenario", o.Scenarios)
		}
		scenarios = keep
	}
	t := metrics.Table{
		Title: "Open-loop load matrix — exact-count campaigns on the virtual clock",
		Header: []string{"scenario", "offered", "completed", "failed", "tasks",
			"repl", "p50", "p99", "max", "sim time", "wall", "sketch"},
	}
	for _, sc := range scenarios {
		if o.Requests > 0 {
			sc.Requests = o.Requests
			sc.ChurnAt = 0 // re-derive from the new span in WithDefaults
		}
		if o.Seed != 0 {
			sc.Seed = o.Seed
		}
		r, err := loadgen.Run(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: load scenario %s: %w", sc.Name, err)
		}
		t.AddRow(slices.Concat([]string{sc.Name}, campaignCounts(r),
			[]string{fmt.Sprint(r.TasksDone), fmt.Sprint(r.Replacements)},
			fmtDurs(r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Max(), r.Duration, r.Wall),
			[]string{fmt.Sprintf("%dB", r.SketchBytes)})...)
	}
	return []metrics.Table{t}, nil
}

// campaignCounts renders a campaign's offered/completed/failed cells,
// which every campaign table (load, scale, hotspot) prints.
func campaignCounts(r *loadgen.Result) []string {
	return []string{fmt.Sprint(r.Offered), fmt.Sprint(r.Completed), fmt.Sprint(r.Failed)}
}

// fmtDur renders a duration rounded for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

func fmtDurs(ds ...time.Duration) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmtDur(d)
	}
	return out
}

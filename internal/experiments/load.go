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

// LoadConfig parameterizes the open-loop load matrix: the loadgen catalog
// (steady, diurnal, hotspot, straggler, churn) driven at campaign scale on
// the virtual clock.
type LoadConfig struct {
	// Scenarios is the suite to run; empty selects loadgen.Catalog().
	Scenarios []loadgen.Scenario
	// Requests overrides every scenario's request count when positive.
	Requests int
	// Seed overrides every scenario's seed when nonzero.
	Seed uint64
	// ScenarioFilter keeps only scenarios whose name contains one of the
	// comma-separated substrings (empty keeps all).
	ScenarioFilter string
}

// CampaignRow is the part of a loadgen.Result every campaign table (load,
// scale, hotspot) prints.
type CampaignRow struct {
	Offered   int64
	Completed int64
	Failed    int64
	P50       time.Duration
	P99       time.Duration
	Max       time.Duration
	// SimDuration is the virtual-time makespan; Wall is the real time the
	// campaign took — their ratio is the harness's time compression.
	SimDuration time.Duration
	Wall        time.Duration
}

func campaignRow(r *loadgen.Result) CampaignRow {
	return CampaignRow{
		Offered:     r.Offered,
		Completed:   r.Completed,
		Failed:      r.Failed,
		P50:         r.Latency.Quantile(0.50),
		P99:         r.Latency.Quantile(0.99),
		Max:         r.Latency.Max(),
		SimDuration: r.Duration,
		Wall:        r.Wall,
	}
}

// counts renders the offered/completed/failed cells.
func (c CampaignRow) counts() []string {
	return []string{fmt.Sprint(c.Offered), fmt.Sprint(c.Completed), fmt.Sprint(c.Failed)}
}

// LoadRow is one scenario's campaign outcome in the load matrix.
type LoadRow struct {
	Scenario string
	CampaignRow
	TasksDone int64
	// Replacements counts failover re-placements (nonzero only for churn).
	Replacements int
	// SketchBytes is the fixed memory the latency sketch used, independent
	// of the request count.
	SketchBytes int
}

// LoadResult is the scenario-matrix dataset.
type LoadResult struct {
	Cfg  LoadConfig
	Rows []LoadRow
}

// RunLoad executes the scenario matrix: each scenario is one open-loop
// campaign on a fresh session over its own virtual clock.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = loadgen.Catalog()
	}
	if cfg.ScenarioFilter != "" {
		var keep []loadgen.Scenario
		for _, sc := range scenarios {
			for _, pat := range splitList(cfg.ScenarioFilter) {
				if strings.Contains(sc.Name, pat) {
					keep = append(keep, sc)
					break
				}
			}
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("experiments: load: filter %q matches no scenario", cfg.ScenarioFilter)
		}
		scenarios = keep
	}

	res := &LoadResult{Cfg: cfg}
	for _, sc := range scenarios {
		if cfg.Requests > 0 {
			sc.Requests = cfg.Requests
			sc.ChurnAt = 0 // re-derive from the new span in WithDefaults
		}
		if cfg.Seed != 0 {
			sc.Seed = cfg.Seed
		}
		r, err := loadgen.Run(ctx, sc)
		if err != nil {
			return res, fmt.Errorf("experiments: load scenario %s: %w", sc.Name, err)
		}
		res.Rows = append(res.Rows, LoadRow{
			Scenario:     sc.Name,
			CampaignRow:  campaignRow(r),
			TasksDone:    r.TasksDone,
			Replacements: r.Replacements,
			SketchBytes:  r.SketchBytes,
		})
	}
	return res, nil
}

// Table renders the scenario matrix.
func (r *LoadResult) Table() metrics.Table {
	t := metrics.Table{
		Title: "Open-loop load matrix — exact-count campaigns on the virtual clock",
		Header: []string{"scenario", "offered", "completed", "failed", "tasks",
			"repl", "p50", "p99", "max", "sim time", "wall", "sketch"},
	}
	for _, row := range r.Rows {
		t.AddRow(slices.Concat([]string{row.Scenario}, row.counts(),
			[]string{fmt.Sprint(row.TasksDone), fmt.Sprint(row.Replacements)},
			fmtDurs(row.P50, row.P99, row.Max, row.SimDuration, row.Wall),
			[]string{fmt.Sprintf("%dB", row.SketchBytes)})...)
	}
	return t
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

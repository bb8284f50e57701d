package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// ScaleConfig parameterizes the serving-scalability ablation: an
// offered-load sweep over the serving modes (single-threaded worker,
// concurrent worker pool, continuous batching) plus a diurnal
// fixed-vs-autoscaled replica pair. All campaigns host the same model
// (vit-base, milliseconds per request) so mode is the only variable.
type ScaleConfig struct {
	// Requests sizes each sweep campaign (default 20000).
	Requests int
	// DiurnalRequests sizes the diurnal pair (default 48000: one full
	// 120s wave at the 400 req/s mean rate).
	DiurnalRequests int
	// Seed drives every campaign (default 7).
	Seed uint64
}

// DefaultScaleConfig returns the ablation at its standard campaign sizes.
func DefaultScaleConfig() ScaleConfig { return ScaleConfig{}.withDefaults() }

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Requests <= 0 {
		c.Requests = 20000
	}
	if c.DiurnalRequests <= 0 {
		c.DiurnalRequests = 48000
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// ScaleRow is one campaign's outcome in the scaling ablation.
type ScaleRow struct {
	Config string
	Rate   float64
	CampaignRow
	// Throughput is completed requests per second of virtual time — at
	// saturating offered rates this is the serving mode's capacity.
	Throughput float64
	// PeakReplicas is the autoscaler's high-water replica count (1 for
	// every fixed-replica configuration).
	PeakReplicas int
}

// ScaleResult is the scaling-ablation dataset.
type ScaleResult struct {
	Cfg  ScaleConfig
	Rows []ScaleRow
}

// scaleQueueCap comfortably exceeds the worst-case backlog of any
// ablation campaign, so no arrival is ever rejected and every count
// stays exact: Completed == Offered == Requests for every row.
const scaleQueueCap = 200000

// RunScale executes the scaling ablation.
//
// Sweep: three serving modes — single (Concurrency 1), concurrent
// (Concurrency 4), batched (Concurrency 4, MaxBatch 8) — each offered
// Poisson load below, near and far above the single-worker capacity
// (~280 req/s for vit-base at 8 tokens). At the saturating rate the
// throughput column reads off each mode's capacity directly.
//
// Diurnal pair: a sinusoidal arrival wave (mean 400 req/s, amplitude
// 0.8, period 120s) whose peak exceeds one worker's capacity, served by
// a fixed single replica versus the autoscaler bounded at four
// replicas. The tail-latency contrast is the autoscaler's payoff.
func RunScale(ctx context.Context, cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{Cfg: cfg}

	modes := []struct {
		name           string
		conc, maxBatch int
	}{
		{"single", 1, 1},
		{"concurrent", 4, 1},
		{"batched", 4, 8},
	}
	rates := []float64{250, 1000, 8000}
	// what every campaign shares: one vit-base backend, never rejecting
	base := loadgen.Scenario{
		Services: 1, QueueCap: scaleQueueCap, Seed: cfg.Seed, Model: "vit-base", MaxTokens: 8,
	}
	var scenarios []loadgen.Scenario
	for _, rate := range rates {
		for _, m := range modes {
			sc := base
			sc.Name, sc.Kind = fmt.Sprintf("%s@%g", m.name, rate), loadgen.KindSteady
			sc.Requests, sc.Rate = cfg.Requests, rate
			sc.Concurrency, sc.MaxBatch = m.conc, m.maxBatch
			scenarios = append(scenarios, sc)
		}
	}
	diurnal := base
	diurnal.Name, diurnal.Kind = "diurnal-fixed", loadgen.KindDiurnal
	diurnal.Requests, diurnal.Rate = cfg.DiurnalRequests, 400
	diurnal.WaveAmp, diurnal.WavePeriod = 0.8, 120*time.Second
	diurnal.Concurrency = 1
	autoscaled := diurnal
	autoscaled.Name = "diurnal-autoscaled"
	autoscaled.MinReplicas, autoscaled.MaxReplicas = 1, 4
	scenarios = append(scenarios, diurnal, autoscaled)

	for _, sc := range scenarios {
		r, err := loadgen.Run(ctx, sc)
		if err != nil {
			return res, fmt.Errorf("experiments: scale campaign %s: %w", sc.Name, err)
		}
		throughput := 0.0
		if r.Duration > 0 {
			throughput = float64(r.Completed) / r.Duration.Seconds()
		}
		res.Rows = append(res.Rows, ScaleRow{
			Config:       sc.Name,
			Rate:         sc.Rate,
			CampaignRow:  campaignRow(r),
			Throughput:   throughput,
			PeakReplicas: r.PeakReplicas,
		})
	}
	return res, nil
}

// Table renders the scaling ablation.
func (r *ScaleResult) Table() metrics.Table {
	t := metrics.Table{
		Title: "Serving scalability — batching and replica autoscaling (vit-base)",
		Header: []string{"config", "rate", "offered", "completed", "failed",
			"throughput", "p50", "p99", "peak reps", "sim time", "wall"},
	}
	for _, row := range r.Rows {
		t.AddRow(slices.Concat([]string{row.Config, fmt.Sprintf("%g/s", row.Rate)}, row.counts(),
			[]string{fmt.Sprintf("%.0f/s", row.Throughput)}, fmtDurs(row.P50, row.P99),
			[]string{fmt.Sprint(row.PeakReplicas)}, fmtDurs(row.SimDuration, row.Wall))...)
	}
	return t
}

package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
)

const (
	scaleRequests = 20000 // each sweep campaign's, unless -requests
	// scaleDiurnalRequests sizes the diurnal pair: one full 120 s wave at
	// the 400 req/s mean rate.
	scaleDiurnalRequests = 48000
	scaleSeed            = 7
	// scaleQueueCap comfortably exceeds the worst-case backlog of any
	// campaign, so no arrival is ever rejected and every count stays exact:
	// Completed == Offered for every row.
	scaleQueueCap = 200000
)

// runScale executes the serving-scalability ablation. All campaigns host
// the same model (vit-base, milliseconds per request) so the serving mode
// is the only variable.
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
func runScale(ctx context.Context, o Options) ([]metrics.Table, error) {
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
		Services: 1, QueueCap: scaleQueueCap, Seed: cmp.Or(o.Seed, scaleSeed), Model: "vit-base", MaxTokens: 8,
	}
	var scenarios []loadgen.Scenario
	for _, rate := range rates {
		for _, m := range modes {
			sc := base
			sc.Name, sc.Kind = fmt.Sprintf("%s@%g", m.name, rate), loadgen.KindSteady
			sc.Requests, sc.Rate = cmp.Or(o.Requests, scaleRequests), rate
			sc.Concurrency, sc.MaxBatch = m.conc, m.maxBatch
			scenarios = append(scenarios, sc)
		}
	}
	diurnal := base
	diurnal.Name, diurnal.Kind = "diurnal-fixed", loadgen.KindDiurnal
	diurnal.Requests, diurnal.Rate = scaleDiurnalRequests, 400
	diurnal.WaveAmp, diurnal.WavePeriod = 0.8, 120*time.Second
	diurnal.Concurrency = 1
	autoscaled := diurnal
	autoscaled.Name = "diurnal-autoscaled"
	autoscaled.MinReplicas, autoscaled.MaxReplicas = 1, 4
	scenarios = append(scenarios, diurnal, autoscaled)

	t := metrics.Table{
		Title: "Serving scalability — batching and replica autoscaling (vit-base)",
		Header: []string{"config", "rate", "offered", "completed", "failed",
			"throughput", "p50", "p99", "peak reps", "sim time", "wall"},
	}
	for _, sc := range scenarios {
		r, err := loadgen.Run(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale campaign %s: %w", sc.Name, err)
		}
		// completed requests per second of virtual time: at saturating
		// offered rates this is the serving mode's capacity
		throughput := 0.0
		if r.Duration > 0 {
			throughput = float64(r.Completed) / r.Duration.Seconds()
		}
		t.AddRow(slices.Concat([]string{sc.Name, fmt.Sprintf("%g/s", sc.Rate)}, campaignCounts(r),
			[]string{fmt.Sprintf("%.0f/s", throughput)}, fmtDurs(r.Latency.Quantile(0.50), r.Latency.Quantile(0.99)),
			[]string{fmt.Sprint(r.PeakReplicas)}, fmtDurs(r.Duration, r.Wall))...)
	}
	return []metrics.Table{t}, nil
}

package experiments

// Hotspot-balancing ablation: the paper's client-side service selection is
// a blind assignment — clients are mapped to service instances round-robin
// at submission time and never react to load. This ablation quantifies
// what the session's load-aware balancing seam buys under a skewed open
// stream: 80% of the offered mass targets one logical service while the
// rest lands directly on the other backends as background load the
// balancer can only see through registry load reports. The same seeded
// arrival schedule is replayed against three pickers — seeded
// power-of-two-choices, blind round-robin, and the full-scan least-loaded
// oracle — so the p99 spread isolates the selection strategy. A second
// half contrasts failover cost with and without warm standbys: the same
// pilot kill is answered either by promoting a pre-bootstrapped spare
// (one generation bump, no boot) or by a cold re-placement that pays the
// full launch/init/publish path. RunHotspot is the `rpexp -exp hotspot`
// table pair.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/states"
)

// HotspotConfig parameterizes the hotspot-balancing ablation.
type HotspotConfig struct {
	// Requests is the offered arrival count per balancer point.
	Requests int
	// Rate is the mean arrival rate in requests per second. The default
	// drives the background-loaded backends to ~90% utilization, where
	// blind selection pays for ignoring the skew.
	Rate float64
	// Model is the hosted backend model. The default vit-base has a
	// modelled per-request compute time of a few milliseconds — queueing
	// is what separates the pickers, and the instant noop model never
	// queues.
	Model string
	// MaxTokens bounds generation (the vit-base default keeps requests at
	// ~4ms).
	MaxTokens int
	// Services is the backend fleet size (≥2; default 4).
	Services int
	// HotspotWeight is the probability mass routed through the balancer
	// (the rest hits services 1..N-1 directly as background load).
	HotspotWeight float64
	// Balancers are the picker names compared (default p2c, round-robin,
	// least-loaded).
	Balancers []string
	// Seed drives every stochastic choice; all balancer points replay the
	// identical arrival and targeting schedule.
	Seed uint64
	// Interval is the campaign's time-series bucket width.
	Interval time.Duration
	// Standbys is the warm-standby pool size for the failover half
	// (default 1; negative skips the failover contrast).
	Standbys int
}

// DefaultHotspotConfig returns the figure-scale parameterization.
func DefaultHotspotConfig() HotspotConfig { return HotspotConfig{}.withDefaults() }

func (c HotspotConfig) withDefaults() HotspotConfig {
	if c.Requests <= 0 {
		c.Requests = 16000
	}
	if c.Rate <= 0 {
		c.Rate = 800
	}
	if c.Model == "" {
		c.Model = "vit-base"
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = 8
	}
	if c.Services <= 0 {
		c.Services = 4
	}
	if c.HotspotWeight <= 0 {
		c.HotspotWeight = 0.8
	}
	if len(c.Balancers) == 0 {
		c.Balancers = []string{"p2c", "round-robin", "least-loaded"}
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Standbys == 0 {
		c.Standbys = 1
	}
	return c
}

// HotspotRow is one balancer's outcome under the identical skewed stream.
type HotspotRow struct {
	Balancer string
	CampaignRow
}

// FailoverRow is one failover mode's outcome for the same pilot kill.
type FailoverRow struct {
	Mode string
	// Latency is the virtual time from the pilot kill to the re-published
	// endpoint the clients can dial.
	Latency time.Duration
	// Generations is how many registry generations the failover cost
	// (warm promotion: exactly 1).
	Generations uint64
	// Promotions and Replacements split the recovery path taken.
	Promotions   int
	Replacements int
}

// Failover modes.
const (
	FailoverWarm = "warm-standby"
	FailoverCold = "cold-replace"
)

// HotspotResult is the ablation dataset.
type HotspotResult struct {
	Cfg      HotspotConfig
	Rows     []HotspotRow
	Failover []FailoverRow
}

// RunHotspot executes the ablation: one open-loop campaign per picker on
// the identical seeded schedule, then the warm-vs-cold failover contrast.
func RunHotspot(ctx context.Context, cfg HotspotConfig) (*HotspotResult, error) {
	cfg = cfg.withDefaults()
	res := &HotspotResult{Cfg: cfg}
	for _, bal := range cfg.Balancers {
		r, err := loadgen.Run(ctx, loadgen.Scenario{
			Name:          "hotspot-" + bal,
			Kind:          loadgen.KindHotspot,
			Requests:      cfg.Requests,
			Rate:          cfg.Rate,
			Model:         cfg.Model,
			MaxTokens:     cfg.MaxTokens,
			Services:      cfg.Services,
			HotspotWeight: cfg.HotspotWeight,
			Balance:       bal,
			Seed:          cfg.Seed,
			Interval:      cfg.Interval,
		})
		if err != nil {
			return res, fmt.Errorf("experiments: hotspot %s: %w", bal, err)
		}
		res.Rows = append(res.Rows, HotspotRow{Balancer: bal, CampaignRow: campaignRow(r)})
	}
	if cfg.Standbys > 0 {
		for _, mode := range []string{FailoverWarm, FailoverCold} {
			row, err := runHotspotFailover(ctx, cfg, mode)
			if err != nil {
				return res, fmt.Errorf("experiments: hotspot failover %s: %w", mode, err)
			}
			res.Failover = append(res.Failover, row)
		}
	}
	return res, nil
}

// runHotspotFailover measures the virtual-time cost of one pilot kill
// under the given recovery mode. The session deliberately boots without
// FastBoot: a cold re-placement pays the modelled launch/init/publish
// path, a warm promotion pays only the registry publish — the contrast
// IS the bootstrap time the standby pre-paid.
func runHotspotFailover(ctx context.Context, cfg HotspotConfig, mode string) (row FailoverRow, err error) {
	row.Mode = mode
	half := spec.PilotDescription{Platform: "delta", Nodes: 2}
	err = runTestbed(core.SessionConfig{Seed: cfg.Seed}, []spec.PilotDescription{half, half}, func(tb *testbed) error {
		d := hostedService("hot", "noop")
		if mode == FailoverWarm {
			d.WarmStandbys = cfg.Standbys
		}
		h, err := tb.ServiceManager().Submit(d)
		if err != nil {
			return err
		}
		// The spares must be bootstrapped and held before the kill: that
		// pre-payment is what the warm mode is about. Submit started them
		// along with the service, and a spare is held on the goroutine that
		// makes it ACTIVE: wait for every instance on the pilots, then for
		// those goroutines to finish.
		for _, p := range tb.pilots {
			for _, inst := range p.Services().List() {
				if inst.State() != states.ServiceActive {
					if err := tb.wait(func() error { return p.Services().WaitReady(ctx, inst.UID()) }); err != nil {
						return err
					}
				}
			}
		}
		tb.clock.Settle()
		if h.Standbys() < d.WarmStandbys {
			return fmt.Errorf("%d of %d warm standbys held", h.Standbys(), d.WarmStandbys)
		}
		f, err := tb.killHost(ctx, h)
		row.Latency, row.Generations = f.Latency, f.Generations
		row.Promotions, row.Replacements = f.Promotions, f.Replacements
		return err
	})
	return row, err
}

// Table renders the balancer matrix.
func (r *HotspotResult) Table() metrics.Table {
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Hotspot-balancing ablation — %.0f%% skewed mass over %d backends at %.0f req/s, identical seeded stream per picker",
			r.Cfg.HotspotWeight*100, r.Cfg.Services, r.Cfg.Rate),
		Header: []string{"balancer", "offered", "completed", "failed", "p50", "p99", "max", "sim time", "wall"},
	}
	for _, row := range r.Rows {
		t.AddRow(slices.Concat([]string{row.Balancer}, row.counts(),
			fmtDurs(row.P50, row.P99, row.Max, row.SimDuration, row.Wall))...)
	}
	return t
}

// FailoverTable renders the warm-vs-cold failover contrast.
func (r *HotspotResult) FailoverTable() metrics.Table {
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Failover cost — hosting pilot killed, %d warm standby vs cold re-bootstrap (virtual time)",
			r.Cfg.Standbys),
		Header: []string{"mode", "failover latency", "generations", "promotions", "replacements"},
	}
	for _, row := range r.Failover {
		t.AddRow(row.Mode,
			fmtDur(row.Latency),
			fmt.Sprintf("%d", row.Generations),
			fmt.Sprintf("%d", row.Promotions),
			fmt.Sprintf("%d", row.Replacements))
	}
	return t
}

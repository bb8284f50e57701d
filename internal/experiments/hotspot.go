package experiments

// Hotspot-balancing ablation: the paper's client-side service selection is
// a blind assignment — clients are mapped to service instances round-robin
// at submission time and never react to load. This ablation quantifies
// what the session's load-aware balancing seam buys under a skewed open
// stream: 80% of the offered mass targets one logical service while the
// rest lands directly on the other backends as background load the
// balancer can only see in their servers' queues, read at each pick. The
// same seeded
// arrival schedule is replayed against three pickers — seeded
// power-of-two-choices, blind round-robin, and the full-scan least-loaded
// oracle — so the p99 spread isolates the selection strategy. A second
// half contrasts failover cost with and without warm standbys: the same
// pilot kill is answered either by promoting a pre-bootstrapped spare
// (one generation bump, no boot) or by a cold re-placement that pays the
// full launch/init/publish path. runHotspot is the `rpexp -exp hotspot`
// table pair.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/spec"
)

const (
	hotspotRequests = 16000 // offered arrivals per picker, unless -requests
	hotspotSeed     = 11
	// The backends: vit-base has a modelled per-request compute time of a
	// few milliseconds at 8 tokens — queueing is what separates the
	// pickers, and the instant noop model never queues.
	hotspotModel     = "vit-base"
	hotspotMaxTokens = 8
	hotspotServices  = 4
	// hotspotRate drives the background-loaded backends to ~90%
	// utilization, where blind selection pays for ignoring the skew.
	hotspotRate = 800
	// hotspotWeight is the probability mass routed through the balancer;
	// the rest hits services 1..N-1 directly as background load.
	hotspotWeight   = 0.8
	hotspotStandbys = 1 // the warm failover's standby pool

	failoverWarm = "warm-standby"
	failoverCold = "cold-replace"
)

// hotspotBalancers are the pickers compared unless -balance names others.
var hotspotBalancers = []string{"p2c", "round-robin", "least-loaded"}

// runHotspot executes the ablation: one open-loop campaign per picker of
// -balance on the identical seeded schedule, then the warm-vs-cold failover
// contrast.
func runHotspot(ctx context.Context, o Options) ([]metrics.Table, error) {
	o.Requests, o.Seed = cmp.Or(o.Requests, hotspotRequests), cmp.Or(o.Seed, hotspotSeed)
	pickers := metrics.Table{
		Title: fmt.Sprintf(
			"Hotspot-balancing ablation — %.0f%% skewed mass over %d backends at %.0f req/s, identical seeded stream per picker",
			hotspotWeight*100, hotspotServices, float64(hotspotRate)),
		Header: []string{"balancer", "offered", "completed", "failed", "p50", "p99", "max", "sim time", "wall"},
	}
	balancers := splitList(o.Balance)
	if len(balancers) == 0 {
		balancers = hotspotBalancers
	}
	for _, bal := range balancers {
		r, err := loadgen.Run(ctx, loadgen.Scenario{
			Name:          "hotspot-" + bal,
			Kind:          loadgen.KindHotspot,
			Requests:      o.Requests,
			Rate:          hotspotRate,
			Model:         hotspotModel,
			MaxTokens:     hotspotMaxTokens,
			Services:      hotspotServices,
			HotspotWeight: hotspotWeight,
			Balance:       bal,
			Seed:          o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: hotspot %s: %w", bal, err)
		}
		pickers.AddRow(slices.Concat([]string{bal}, campaignCounts(r),
			fmtDurs(r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Max(), r.Duration, r.Wall))...)
	}
	failovers := metrics.Table{
		Title: fmt.Sprintf(
			"Failover cost — hosting pilot killed, %d warm standby vs cold re-bootstrap (virtual time)",
			hotspotStandbys),
		Header: []string{"mode", "failover latency", "generations", "promotions", "replacements"},
	}
	for _, mode := range []string{failoverWarm, failoverCold} {
		f, err := hotspotFailover(ctx, o.Seed, mode)
		if err != nil {
			return nil, fmt.Errorf("experiments: hotspot failover %s: %w", mode, err)
		}
		failovers.AddRow(mode, fmtDur(f.Latency),
			fmt.Sprint(f.Generations), fmt.Sprint(f.Promotions), fmt.Sprint(f.Replacements))
	}
	return []metrics.Table{pickers, failovers}, nil
}

// hotspotFailover measures the virtual-time cost of one pilot kill
// under the given recovery mode. The session deliberately boots without
// FastBoot: a cold re-placement pays the modelled launch/init/publish
// path, a warm promotion pays only the registry publish — the contrast
// IS the bootstrap time the standby pre-paid.
func hotspotFailover(ctx context.Context, seed uint64, mode string) (f failover, err error) {
	half := spec.PilotDescription{Platform: "delta", Nodes: 2}
	err = runTestbed(core.SessionConfig{Seed: seed}, []spec.PilotDescription{half, half}, func(tb *testbed) error {
		d := hostedService("hot", "noop")
		if mode == failoverWarm {
			d.WarmStandbys = hotspotStandbys
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
			if err := p.WaitServices(ctx); err != nil {
				return err
			}
		}
		tb.clock.Settle()
		if h.Standbys() < d.WarmStandbys {
			return fmt.Errorf("%d of %d warm standbys held", h.Standbys(), d.WarmStandbys)
		}
		f, err = tb.killHost(ctx, h)
		return err
	})
	return f, err
}

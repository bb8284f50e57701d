package experiments

// Service-failover ablation: the paper treats services as schedulable
// entities inside pilots, which couples every client of a service to the
// lifetime of the pilot hosting it. This ablation quantifies what the
// session-level endpoint registry and failure-driven re-placement buy:
// on the hetero campus split into two pilots, a noop service bootstraps
// on the first pilot, clients stream requests against it, and the
// hosting pilot is killed mid-stream. The session re-places the service
// on the survivor and re-publishes its endpoint under the same UID with
// a bumped generation. A client that cached the raw endpoint (the seed
// behaviour) loses every post-failover request against the dead address;
// a registry-resolving client detects the stale generation, redials, and
// recovers all of them. RunSvcFail drives both client styles over the
// identical scenario and is the `rpexp -exp svcfail` table.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// SvcFailClientCaching and SvcFailClientResolving name the two client
// styles the ablation contrasts.
const (
	SvcFailClientCaching   = "endpoint-caching"
	SvcFailClientResolving = "registry-resolving"
)

// SvcFailConfig parameterizes the service-failover ablation.
type SvcFailConfig struct {
	// Platform names a mixed-shape catalog platform split into one pilot
	// per node-shape partition (default "hetero").
	Platform string
	// Requests is the client's total request budget (default 32).
	Requests int
	// KillAfter is how many requests complete before the hosting pilot is
	// killed (default Requests/2).
	KillAfter int
	// Clients are the styles compared (default: both).
	Clients []string
	// Scale is the clock compression (default 2000).
	Scale float64
	// Seed drives determinism.
	Seed uint64
}

// DefaultSvcFailConfig returns the figure-scale parameterization.
func DefaultSvcFailConfig() SvcFailConfig {
	return SvcFailConfig{
		Platform: "hetero",
		Requests: 32,
		Clients:  []string{SvcFailClientCaching, SvcFailClientResolving},
		Scale:    2000,
		Seed:     9,
	}
}

// SvcFailRow is one client style's outcome across the failover.
type SvcFailRow struct {
	Client string
	// PreKill counts successful requests before the pilot is killed
	// (always KillAfter when the scenario is healthy).
	PreKill int
	// Recovered and Failed count post-failover requests that succeeded /
	// errored. The acceptance contrast: caching recovers 0, resolving
	// recovers all of them.
	Recovered int
	Failed    int
	// Reresolved counts the resolver's stale-generation redials (0 for
	// the caching client).
	Reresolved int
	// Replacements is the session-level re-placement count of the service
	// (1: it failed over exactly once).
	Replacements int
	// Generation is the endpoint generation after the failover (2: one
	// initial publication plus one re-publication).
	Generation uint64
	// HostBefore and HostAfter are the hosting pilot UIDs around the kill.
	HostBefore, HostAfter string
}

// SvcFailResult is the ablation dataset.
type SvcFailResult struct {
	Cfg  SvcFailConfig
	Rows []SvcFailRow
}

// RunSvcFail executes the failover ablation: the identical
// kill-the-hosting-pilot scenario once per client style.
func RunSvcFail(ctx context.Context, cfg SvcFailConfig) (*SvcFailResult, error) {
	if cfg.Platform == "" {
		cfg.Platform = "hetero"
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 32
	}
	if cfg.KillAfter <= 0 || cfg.KillAfter >= cfg.Requests {
		cfg.KillAfter = cfg.Requests / 2
	}
	if len(cfg.Clients) == 0 {
		cfg.Clients = []string{SvcFailClientCaching, SvcFailClientResolving}
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 2000
	}
	res := &SvcFailResult{Cfg: cfg}
	for _, client := range cfg.Clients {
		row, err := runSvcFailPoint(ctx, cfg, client)
		if err != nil {
			return res, fmt.Errorf("experiments: svcfail %s on %s: %w", client, cfg.Platform, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runSvcFailPoint runs the scenario under one client style: two pilots
// (one per shape partition), one routed noop service, a sequential
// request stream interrupted by killing the hosting pilot, then resumed
// once the failover re-publication lands — so both styles race against a
// service that is provably live again, and the contrast isolates the
// client's endpoint-resolution strategy.
func runSvcFailPoint(ctx context.Context, cfg SvcFailConfig, client string) (SvcFailRow, error) {
	sess, err := core.NewSession(core.SessionConfig{
		Seed:     cfg.Seed,
		Clock:    simtime.NewScaled(cfg.Scale, core.DefaultOrigin),
		FastBoot: true,
	})
	if err != nil {
		return SvcFailRow{}, err
	}
	defer sess.Close()

	plat := sess.Topology().Platform(cfg.Platform)
	if plat == nil {
		return SvcFailRow{}, fmt.Errorf("unknown platform %q", cfg.Platform)
	}
	sm := sess.ServiceManager()
	var pilots []*pilot.Pilot
	for _, g := range plat.Shapes() {
		p, err := sess.PilotManager().Submit(spec.PilotDescription{
			Platform: cfg.Platform, Nodes: g.Count,
		})
		if err != nil {
			return SvcFailRow{}, err
		}
		pilots = append(pilots, p)
		sm.AddPilot(p)
	}
	if len(pilots) < 2 {
		return SvcFailRow{}, fmt.Errorf("platform %q yields %d pilots; the failover needs a survivor", cfg.Platform, len(pilots))
	}

	h, err := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1},
		Model:           "noop",
		ProbeInterval:   time.Hour,
		StartTimeout:    time.Hour,
	})
	if err != nil {
		return SvcFailRow{}, err
	}
	if err := sm.WaitReady(ctx, h.UID()); err != nil {
		return SvcFailRow{}, err
	}
	row := SvcFailRow{Client: client, HostBefore: h.Pilot()}

	clientAddr := platform.Addr(cfg.Platform, "", "svcfail-client")
	var caller service.Caller
	var resolver *service.Balancer
	switch client {
	case SvcFailClientCaching:
		// the seed client: dial the published endpoint once and keep it
		caller, err = sess.Dial(clientAddr, h.Endpoint())
	case SvcFailClientResolving:
		resolver, err = sess.DialService(clientAddr, h.UID(), nil)
		caller = resolver
	default:
		return row, fmt.Errorf("unknown client style %q", client)
	}
	if err != nil {
		return row, err
	}
	defer caller.Close()

	for i := 0; i < cfg.KillAfter; i++ {
		if _, _, err := caller.Infer(ctx, fmt.Sprintf("pre-%d", i), 0); err != nil {
			return row, fmt.Errorf("pre-kill request %d: %w", i, err)
		}
		row.PreKill++
	}

	// Kill the hosting pilot mid-stream and wait for the session to
	// re-place the service and re-publish its endpoint.
	var host *pilot.Pilot
	for _, p := range pilots {
		if p.UID() == row.HostBefore {
			host = p
		}
	}
	if host == nil {
		return row, fmt.Errorf("hosting pilot %s not found", row.HostBefore)
	}
	genBefore := sess.EndpointRegistry().Generation(h.UID())
	if err := host.Shutdown(); err != nil {
		return row, err
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, gen, err := sess.EndpointRegistry().AwaitNewer(waitCtx, h.UID(), genBefore); err != nil {
		return row, fmt.Errorf("failover re-publication never landed: %w", err)
	} else {
		row.Generation = gen
	}
	row.HostAfter = h.Pilot()
	row.Replacements = h.Replacements()

	for i := 0; i < cfg.Requests-cfg.KillAfter; i++ {
		if _, _, err := caller.Infer(ctx, fmt.Sprintf("post-%d", i), 0); err != nil {
			row.Failed++
		} else {
			row.Recovered++
		}
	}
	if resolver != nil {
		row.Reresolved = resolver.Reresolved()
	}
	return row, nil
}

// Table renders the failover ablation.
func (r *SvcFailResult) Table() metrics.Table {
	post := r.Cfg.Requests - r.Cfg.KillAfter
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Service-failover ablation — %s split into per-shape pilots, hosting pilot killed after %d/%d requests (%d post-failover)",
			r.Cfg.Platform, r.Cfg.KillAfter, r.Cfg.Requests, post),
		Header: []string{"client", "pre-kill ok", "recovered", "failed", "re-resolved", "replacements", "endpoint gen"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Client,
			fmt.Sprintf("%d/%d", row.PreKill, r.Cfg.KillAfter),
			fmt.Sprintf("%d/%d", row.Recovered, post),
			fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%d", row.Reresolved),
			fmt.Sprintf("%d", row.Replacements),
			fmt.Sprintf("%d", row.Generation))
	}
	return t
}

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
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/service"
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
func DefaultSvcFailConfig() SvcFailConfig { return SvcFailConfig{}.withDefaults() }

func (c SvcFailConfig) withDefaults() SvcFailConfig {
	if c.Platform == "" {
		c.Platform = "hetero"
	}
	if c.Requests <= 0 {
		c.Requests = 32
	}
	if c.KillAfter <= 0 || c.KillAfter >= c.Requests {
		c.KillAfter = c.Requests / 2
	}
	if len(c.Clients) == 0 {
		c.Clients = []string{SvcFailClientCaching, SvcFailClientResolving}
	}
	if c.Scale <= 0 {
		c.Scale = 2000
	}
	if c.Seed == 0 {
		c.Seed = 9
	}
	return c
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
	cfg = cfg.withDefaults()
	shapes, _, _, err := shapesOf(cfg.Platform, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: svcfail needs a surviving pilot: %w", err)
	}
	res := &SvcFailResult{Cfg: cfg}
	for _, client := range cfg.Clients {
		row, err := runSvcFailPoint(ctx, cfg, client, shapes)
		if err != nil {
			return res, fmt.Errorf("experiments: svcfail %s on %s: %w", client, cfg.Platform, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// resolvingCaller is a client that follows a service UID across endpoint
// re-publications and counts its stale-generation redials: a
// service.Balancer inside a session, a service.Resolver over a bare
// registry.
type resolvingCaller interface {
	service.Caller
	Reresolved() int
}

// run drives the scenario both the in-process and the OS-process failover
// points share, under the row's client style: dial (the caching client
// dials the published endpoint once and keeps it — the seed behaviour — the
// resolving one follows the registry), KillAfter sequential requests that
// must all succeed, the failover, then the rest of the budget, each request
// counted as recovered or failed. failover returns once the service is
// provably live again, so both styles race a live service and the contrast
// isolates the client's endpoint-resolution strategy.
func (row *SvcFailRow) run(ctx context.Context, cfg SvcFailConfig,
	dialCaching func() (service.Caller, error), dialResolving func() (resolvingCaller, error), failover func() error) error {
	var caller service.Caller
	var resolver resolvingCaller
	var err error
	switch row.Client {
	case SvcFailClientCaching:
		caller, err = dialCaching()
	case SvcFailClientResolving:
		resolver, err = dialResolving()
		caller = resolver
	default:
		return fmt.Errorf("unknown client style %q", row.Client)
	}
	if err != nil {
		return err
	}
	defer caller.Close()
	for i := 0; i < cfg.KillAfter; i++ {
		if _, _, err := caller.Infer(ctx, fmt.Sprintf("pre-%d", i), 0); err != nil {
			return fmt.Errorf("pre-kill request %d: %w", i, err)
		}
		row.PreKill++
	}
	if err := failover(); err != nil {
		return err
	}
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
	return nil
}

// runSvcFailPoint runs the scenario under one client style: two pilots
// (one per shape partition), one routed noop service, and the request
// stream interrupted by killing the hosting pilot.
func runSvcFailPoint(ctx context.Context, cfg SvcFailConfig, client string, shapes []platform.NodeGroup) (SvcFailRow, error) {
	tb, err := newTestbed(core.SessionConfig{Seed: cfg.Seed, FastBoot: true},
		cfg.Scale, pilotPerShape(cfg.Platform, shapes)...)
	if err != nil {
		return SvcFailRow{}, err
	}
	defer tb.Close()

	h, err := tb.ServiceManager().Submit(hostedService("svc", "noop"))
	if err != nil {
		return SvcFailRow{}, err
	}
	if err := h.WaitReady(ctx); err != nil {
		return SvcFailRow{}, err
	}
	row := SvcFailRow{Client: client, HostBefore: h.Pilot()}
	clientAddr := platform.Addr(cfg.Platform, "", "svcfail-client")
	err = row.run(ctx, cfg,
		func() (service.Caller, error) { return tb.Dial(clientAddr, h.Endpoint()) },
		func() (resolvingCaller, error) { return tb.DialService(clientAddr, h.UID(), nil) },
		func() error {
			f, err := tb.killHost(ctx, h)
			row.Generation, row.HostAfter, row.Replacements = f.Generation, f.Host, f.Replacements
			return err
		})
	return row, err
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
		t.AddRow(slices.Concat([]string{row.Client}, row.cells(r.Cfg.KillAfter, post),
			[]string{fmt.Sprint(row.Replacements), fmt.Sprint(row.Generation)})...)
	}
	return t
}

// cells renders the request-stream columns the in-process and the
// cross-process failover tables share: pre-kill ok, recovered, failed,
// re-resolved.
func (row SvcFailRow) cells(killAfter, post int) []string {
	return []string{
		fmt.Sprintf("%d/%d", row.PreKill, killAfter),
		fmt.Sprintf("%d/%d", row.Recovered, post),
		fmt.Sprint(row.Failed),
		fmt.Sprint(row.Reresolved),
	}
}

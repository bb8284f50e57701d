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
// recovers all of them. runSvcFail drives both client styles over the
// identical scenario and is the `rpexp -exp svcfail` table.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/service"
)

// The two client styles the ablation contrasts, in table order.
const (
	svcFailClientCaching   = "endpoint-caching"
	svcFailClientResolving = "registry-resolving"
)

const (
	// svcFailRequests is the client's request budget unless -requests; the
	// hosting pilot is killed once half of it has completed.
	svcFailRequests = 32
	svcFailSeed     = 9
)

// runSvcFail executes the failover ablation: the identical
// kill-the-hosting-pilot scenario once per client style.
func runSvcFail(ctx context.Context, o Options) ([]metrics.Table, error) {
	o.Platform, o.Requests, o.Seed = cmp.Or(o.Platform, defaultPlatform), cmp.Or(o.Requests, svcFailRequests), cmp.Or(o.Seed, svcFailSeed)
	rows, err := svcFailRows(ctx, o)
	if err != nil {
		return nil, err
	}
	killAfter, post := o.Requests/2, o.Requests-o.Requests/2
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Service-failover ablation — %s split into per-shape pilots, hosting pilot killed after %d/%d requests (%d post-failover)",
			o.Platform, killAfter, o.Requests, post),
		Header: []string{"client", "pre-kill ok", "recovered", "failed", "re-resolved", "replacements", "endpoint gen"},
	}
	for _, row := range rows {
		t.AddRow(slices.Concat([]string{row.Client}, row.cells(o.Requests),
			[]string{fmt.Sprint(row.Replacements), fmt.Sprint(row.Generation)})...)
	}
	return []metrics.Table{t}, nil
}

// svcFailRow is one client style's outcome across the failover.
type svcFailRow struct {
	Client string
	// PreKill counts successful requests before the pilot is killed
	// (always half the budget when the scenario is healthy).
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

// svcFailRows runs the scenario in process once per client style.
func svcFailRows(ctx context.Context, o Options) ([]svcFailRow, error) {
	shapes, _, _, err := shapesOf(o.Platform, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: svcfail needs a surviving pilot: %w", err)
	}
	var rows []svcFailRow
	for _, client := range []string{svcFailClientCaching, svcFailClientResolving} {
		row, err := svcFailPoint(ctx, o, client, shapes)
		if err != nil {
			return nil, fmt.Errorf("experiments: svcfail %s on %s: %w", client, o.Platform, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
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
// resolving one follows the registry), half the budget of sequential
// requests that must all succeed, the failover, then the rest, each request
// counted as recovered or failed. failover returns once the service is
// provably live again, so both styles race a live service and the contrast
// isolates the client's endpoint-resolution strategy.
func (row *svcFailRow) run(ctx context.Context, requests int,
	dialCaching func() (service.Caller, error), dialResolving func() (resolvingCaller, error), failover func() error) error {
	var caller service.Caller
	var resolver resolvingCaller
	var err error
	switch row.Client {
	case svcFailClientCaching:
		caller, err = dialCaching()
	case svcFailClientResolving:
		resolver, err = dialResolving()
		caller = resolver
	default:
		return fmt.Errorf("unknown client style %q", row.Client)
	}
	if err != nil {
		return err
	}
	defer caller.Close()
	for i := 0; i < requests/2; i++ {
		if _, _, err := caller.Infer(ctx, fmt.Sprintf("pre-%d", i), 0); err != nil {
			return fmt.Errorf("pre-kill request %d: %w", i, err)
		}
		row.PreKill++
	}
	if err := failover(); err != nil {
		return err
	}
	for i := 0; i < requests-requests/2; i++ {
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

// svcFailPoint runs the scenario under one client style: two pilots
// (one per shape partition), one routed noop service, and the request
// stream interrupted by killing the hosting pilot.
func svcFailPoint(ctx context.Context, o Options, client string, shapes []platform.NodeGroup) (row svcFailRow, err error) {
	scfg := core.SessionConfig{Seed: o.Seed, FastBoot: true}
	err = runTestbed(scfg, pilotPerShape(o.Platform, shapes), func(tb *testbed) error {
		h, err := tb.ServiceManager().Submit(hostedService("svc", "noop"))
		if err != nil {
			return err
		}
		if err := tb.wait(func() error { return h.WaitReady(ctx) }); err != nil {
			return err
		}
		row = svcFailRow{Client: client, HostBefore: h.Pilot()}
		clientAddr := platform.Addr(o.Platform, "", "svcfail-client")
		return row.run(ctx, o.Requests,
			func() (service.Caller, error) { return tb.Dial(clientAddr, h.Endpoint()) },
			func() (resolvingCaller, error) { return tb.DialService(clientAddr, h.UID(), nil) },
			func() error {
				f, err := tb.killHost(ctx, h)
				row.Generation, row.HostAfter, row.Replacements = f.Generation, f.Host, f.Replacements
				return err
			})
	})
	return row, err
}

// cells renders the request-stream columns the in-process and the
// cross-process failover tables share under a budget of requests: pre-kill
// ok, recovered, failed, re-resolved.
func (row svcFailRow) cells(requests int) []string {
	killAfter, post := requests/2, requests-requests/2
	return []string{
		fmt.Sprintf("%d/%d", row.PreKill, killAfter),
		fmt.Sprintf("%d/%d", row.Recovered, post),
		fmt.Sprint(row.Failed),
		fmt.Sprint(row.Reresolved),
	}
}

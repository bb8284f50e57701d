package experiments

// Cross-process ablation: every other experiment in this repo runs its
// pilots as goroutines inside one process, where the in-proc msgq
// transport hides serialization, framing and socket failure modes. This
// ablation re-runs the route and service-failover scenarios with each
// pilot as a real OS process (xproc agents reached over the pooled TCP
// transport) and asserts outcome-count equality against the in-proc
// baselines — the determinism contract of the transport seam: swapping
// the wire under the session changes timing, not outcomes. runXproc
// drives both scenario families and is the `rpexp -exp xproc` table pair.
//
// Outcome counts (not placements or latencies) are the comparable
// quantity: the drivers submit identical workloads in identical order to
// identically carved pilots, and the routers compared here (round-robin,
// capacity-fit) decide from submission order and static shapes only, so
// the done/failed/rejected tallies are timing-independent.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
	"repro/internal/xproc"
)

const (
	xprocSeed     = 11
	xprocRequests = 16 // the failover stream's budget, unless -requests
	// The route workload at smoke scale; the in-proc baseline runs the same.
	xprocFatTasks, xprocThinTasks = 8, 16
	// xprocScale is the agents' clock compression: agent processes run on
	// real time, the in-proc baselines on the virtual clock.
	xprocScale = 2000
)

// runXproc runs the route and failover scenarios once with pilots as OS
// processes over TCP, once in-proc, and renders each scenario's
// cross-process and in-proc rows interleaved per router or client style.
// The routers are round-robin and capacity-fit (routeRouters).
func runXproc(ctx context.Context, o Options) ([]metrics.Table, error) {
	o.Platform, o.Requests, o.Seed = cmp.Or(o.Platform, defaultPlatform), cmp.Or(o.Requests, xprocRequests), cmp.Or(o.Seed, xprocSeed)
	shapes, thin, fat, err := shapesOf(o.Platform, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: xproc: %w", err)
	}
	w := newRouteWorkload(shapes, thin, fat, xprocFatTasks, xprocThinTasks)
	routeInproc, err := routeRows(ctx, o, w)
	if err != nil {
		return nil, fmt.Errorf("experiments: xproc in-proc route baseline: %w", err)
	}
	svcFailInproc, err := svcFailRows(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("experiments: xproc in-proc svcfail baseline: %w", err)
	}
	route := metrics.Table{
		Title: fmt.Sprintf("Cross-process route ablation — %s carved into per-shape agent processes over TCP, %s",
			o.Platform, w),
		Header: []string{"router", "variant", "fat done", "fat failed", "thin done", "thin failed", "rejected"},
	}
	// One fresh agent set per router and per client style.
	for i, rt := range routeRouters {
		row, err := xprocRoutePoint(ctx, o, rt, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: xproc route %s: %w", rt, err)
		}
		route.AddRow(slices.Concat([]string{row.Router, "os-process"}, row.cells(w))...)
		route.AddRow(slices.Concat([]string{row.Router, "in-proc"}, routeInproc[i].cells(w))...)
	}
	killAfter := o.Requests / 2
	svcFail := metrics.Table{
		Title: fmt.Sprintf(
			"Cross-process failover ablation — hosting agent SIGKILLed after %d/%d requests (%d post-failover)",
			killAfter, o.Requests, o.Requests-killAfter),
		Header: []string{"client", "variant", "pre-kill ok", "recovered", "failed", "re-resolved", "endpoint gen"},
	}
	for _, in := range svcFailInproc {
		row, err := xprocSvcFailPoint(ctx, o, in.Client, shapes)
		if err != nil {
			return nil, fmt.Errorf("experiments: xproc svcfail %s: %w", in.Client, err)
		}
		svcFail.AddRow(slices.Concat([]string{row.Client, "os-process"}, row.cells(o.Requests), []string{fmt.Sprint(row.Generation)})...)
		svcFail.AddRow(slices.Concat([]string{in.Client, "in-proc"}, in.cells(o.Requests), []string{fmt.Sprint(in.Generation)})...)
	}
	return []metrics.Table{route, svcFail}, nil
}

// spawnAgents starts one pilot-agent process per node-shape partition of
// the platform, carving consecutive partitions exactly as the in-proc
// experiments' consecutive pilot submissions do. The returned function
// shuts them all down.
func spawnAgents(ctx context.Context, platformName string, shapes []platform.NodeGroup, seed uint64) ([]*xproc.Proc, func(), error) {
	var procs []*xproc.Proc
	cleanup := func() {
		for _, p := range procs {
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = p.Shutdown(sctx)
			cancel()
		}
	}
	skip := 0
	for i, g := range shapes {
		p, err := xproc.Spawn(ctx, xproc.AgentConfig{
			UID:       fmt.Sprintf("pilot.%04d", i),
			Platform:  platformName,
			SkipNodes: skip,
			Nodes:     g.Count,
			Seed:      seed + uint64(i),
			Scale:     xprocScale,
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		procs = append(procs, p)
		skip += g.Count
	}
	return procs, cleanup, nil
}

// xprocRoutePoint replays the route workload with the router running
// driver-side over agent processes as targets.
func xprocRoutePoint(ctx context.Context, o Options, rt string, w routeWorkload) (routeRow, error) {
	procs, cleanup, err := spawnAgents(ctx, o.Platform, w.shapes, o.Seed)
	if err != nil {
		return routeRow{}, err
	}
	defer cleanup()

	r, err := router.ByName(rt)
	if err != nil {
		return routeRow{}, err
	}
	targets := make([]router.Target, len(procs))
	for i, p := range procs {
		targets[i] = p
	}
	// Accepted tasks in submission order, and the same UIDs per agent for
	// the one blocking wait RPC each agent gets.
	var order []string
	perAgent := make([][]string, len(procs))
	return w.run(rt,
		func(d spec.TaskDescription) error {
			idx, err := r.Route(targets, d)
			if err != nil {
				return err
			}
			uid, err := procs[idx].SubmitTask(ctx, d)
			if err != nil {
				return err
			}
			order = append(order, uid)
			perAgent[idx] = append(perAgent[idx], uid)
			return nil
		},
		func() ([]states.State, error) {
			waitCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
			defer cancel()
			state := make(map[string]states.State, len(order))
			for i, p := range procs {
				if len(perAgent[i]) == 0 {
					continue
				}
				sts, err := p.WaitTasks(waitCtx, perAgent[i])
				if err != nil {
					return nil, err
				}
				for _, st := range sts {
					state[st.UID] = states.State(st.State)
				}
			}
			final := make([]states.State, len(order))
			for i, uid := range order {
				final[i] = state[uid]
			}
			return final, nil
		})
}

// xprocSvcFailPoint replays the failover scenario with the service
// hosted in an agent process that is SIGKILLed mid-stream — a harder kill
// than the in-proc pilot shutdown — and the registry/re-placement loop
// running driver-side.
func xprocSvcFailPoint(ctx context.Context, o Options, client string, shapes []platform.NodeGroup) (svcFailRow, error) {
	procs, cleanup, err := spawnAgents(ctx, o.Platform, shapes, o.Seed)
	if err != nil {
		return svcFailRow{}, err
	}
	defer cleanup()

	desc := hostedService("svc", "noop")
	desc.UID = "svc.0"
	// The driver owns the registry: agents publish dialable tcp://
	// endpoints, the driver records them under the stable service UID.
	reg := service.NewEndpointRegistry()
	place := func(p *xproc.Proc) (proto.Endpoint, uint64, error) {
		if _, err := p.SubmitService(ctx, desc); err != nil {
			return proto.Endpoint{}, 0, err
		}
		ep, err := p.AwaitService(ctx, desc.UID)
		if err != nil {
			return proto.Endpoint{}, 0, err
		}
		gen, err := reg.Publish(ep)
		return ep, gen, err
	}
	ep, genBefore, err := place(procs[0])
	if err != nil {
		return svcFailRow{}, err
	}
	row := svcFailRow{Client: client, HostBefore: procs[0].UID()}

	clock := simtime.NewReal()
	net := msgq.NewNetwork(clock, rng.New(o.Seed).Derive("xproc-driver"), nil)
	defer net.Close()
	dial := func(ep proto.Endpoint) (service.Caller, error) {
		return service.Dial(net, clock, "xproc-client", ep)
	}
	err = row.run(ctx, o.Requests,
		func() (service.Caller, error) { return dial(ep) },
		func() (*service.Balancer, error) { return service.NewResolver(reg, desc.UID, dial, 0) },
		func() error {
			// SIGKILL the hosting process, then re-place the service on the
			// survivor and re-publish its endpoint under the same UID.
			if err := procs[0].Kill(); err != nil {
				return err
			}
			reg.Suspend(desc.UID)
			_, gen, err := place(procs[1])
			if err != nil {
				return err
			}
			if gen <= genBefore {
				return fmt.Errorf("re-publication did not advance the generation: %d -> %d", genBefore, gen)
			}
			row.Generation, row.Replacements, row.HostAfter = gen, 1, procs[1].UID()
			return nil
		})
	return row, err
}

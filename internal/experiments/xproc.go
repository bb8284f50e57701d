package experiments

// Cross-process ablation: every other experiment in this repo runs its
// pilots as goroutines inside one process, where the in-proc msgq
// transport hides serialization, framing and socket failure modes. This
// ablation re-runs the route and service-failover scenarios with each
// pilot as a real OS process (xproc agents reached over the pooled TCP
// transport) and asserts outcome-count equality against the in-proc
// baselines — the determinism contract of the transport seam: swapping
// the wire under the session changes timing, not outcomes. RunXproc
// drives both scenario families and is the `rpexp -exp xproc` table.
//
// Outcome counts (not placements or latencies) are the comparable
// quantity: the drivers submit identical workloads in identical order to
// identically carved pilots, and the routers compared here (round-robin,
// capacity-fit) decide from submission order and static shapes only, so
// the done/failed/rejected tallies are timing-independent. least-loaded
// is deliberately excluded — it reads live queue-depth snapshots, which
// real-clock agent processes cannot reproduce deterministically.

import (
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

// XprocConfig parameterizes the cross-process ablation.
type XprocConfig struct {
	// Platform names the mixed-shape catalog platform carved into one
	// agent process per node-shape partition (default "hetero").
	Platform string
	// Routers are the strategies compared in the route scenario (default:
	// round-robin, capacity-fit — the deterministic ones; least-loaded
	// depends on live snapshots and is excluded, see the package comment).
	Routers []string
	// FatTasks / ThinTasks size the route workload (defaults 8 / 16 — the
	// route ablation at smoke scale; the in-proc baseline runs the same).
	FatTasks, ThinTasks int
	// TaskTime is the simulated task duration (default 5s).
	TaskTime time.Duration
	// Requests / KillAfter shape the failover request stream (defaults
	// 16 / 8).
	Requests, KillAfter int
	// Scale is the agents' clock compression (default 2000).
	Scale float64
	// Seed drives determinism.
	Seed uint64
}

// DefaultXprocConfig returns the figure-scale parameterization.
func DefaultXprocConfig() XprocConfig { return XprocConfig{}.withDefaults() }

func (c XprocConfig) withDefaults() XprocConfig {
	if c.FatTasks <= 0 {
		c.FatTasks = 8
	}
	if c.ThinTasks <= 0 {
		c.ThinTasks = 16
	}
	if c.Requests <= 0 {
		c.Requests = 16
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	// everything else defaults as in the in-proc ablations this one replays
	rt, svc := c.route().withDefaults(), c.svcFail().withDefaults()
	c.Platform, c.Routers, c.TaskTime, c.Scale, c.KillAfter = rt.Platform, rt.Routers, rt.TaskTime, rt.Scale, svc.KillAfter
	return c
}

// route and svcFail are the in-proc ablations on the identical workloads.
func (c XprocConfig) route() RouteConfig {
	return RouteConfig{
		Platform: c.Platform, Routers: c.Routers,
		FatTasks: c.FatTasks, ThinTasks: c.ThinTasks,
		TaskTime: c.TaskTime, Scale: c.Scale, Seed: c.Seed,
	}
}

func (c XprocConfig) svcFail() SvcFailConfig {
	return SvcFailConfig{
		Platform: c.Platform, Requests: c.Requests, KillAfter: c.KillAfter,
		Scale: c.Scale, Seed: c.Seed,
	}
}

// XprocResult is the cross-process ablation dataset: each scenario's
// cross-process rows next to its in-proc baseline rows.
type XprocResult struct {
	Cfg XprocConfig
	// Route / RouteInproc are the routing outcomes, one row per router.
	Route, RouteInproc []RouteRow
	// SvcFail / SvcFailInproc are the failover outcomes, one row per
	// client style.
	SvcFail, SvcFailInproc []SvcFailRow
	// FatCores/FatGPUs/ThinCores echo the per-task demands.
	FatCores, FatGPUs, ThinCores int
}

// RunXproc executes the cross-process ablation: the route and failover
// scenarios once with pilots as OS processes over TCP, once in-proc, on
// identical workloads.
func RunXproc(ctx context.Context, cfg XprocConfig) (*XprocResult, error) {
	cfg = cfg.withDefaults()
	shapes, thin, fat, err := shapesOf(cfg.Platform, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: xproc: %w", err)
	}
	res := &XprocResult{
		Cfg:       cfg,
		FatCores:  fat.Spec.Cores,
		FatGPUs:   fat.Spec.GPUs,
		ThinCores: thin.Spec.Cores,
	}

	// In-proc baselines on the identical workloads.
	inRoute, err := RunRoute(ctx, cfg.route())
	if err != nil {
		return res, fmt.Errorf("experiments: xproc in-proc route baseline: %w", err)
	}
	res.RouteInproc = inRoute.Rows
	inSvc, err := RunSvcFail(ctx, cfg.svcFail())
	if err != nil {
		return res, fmt.Errorf("experiments: xproc in-proc svcfail baseline: %w", err)
	}
	res.SvcFailInproc = inSvc.Rows

	// Cross-process route scenario, one fresh agent pair per router.
	w := newRouteWorkload(cfg.FatTasks, cfg.ThinTasks, thin.Spec, fat.Spec, cfg.TaskTime)
	for _, rt := range cfg.Routers {
		row, err := runXprocRoutePoint(ctx, cfg, rt, shapes, w)
		if err != nil {
			return res, fmt.Errorf("experiments: xproc route %s: %w", rt, err)
		}
		res.Route = append(res.Route, row)
	}
	// Cross-process failover scenario, one fresh agent pair per style.
	for _, client := range inSvc.Cfg.Clients {
		row, err := runXprocSvcFailPoint(ctx, inSvc.Cfg, client, shapes)
		if err != nil {
			return res, fmt.Errorf("experiments: xproc svcfail %s: %w", client, err)
		}
		res.SvcFail = append(res.SvcFail, row)
	}
	return res, nil
}

// spawnAgents starts one pilot-agent process per node-shape partition of
// the platform, carving consecutive partitions exactly as the in-proc
// experiments' consecutive pilot submissions do. The returned function
// shuts them all down.
func spawnAgents(ctx context.Context, platformName string, shapes []platform.NodeGroup, seed uint64, scale float64) ([]*xproc.Proc, func(), error) {
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
			Scale:     scale,
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

// runXprocRoutePoint replays the route workload with the router running
// driver-side over agent processes as targets.
func runXprocRoutePoint(ctx context.Context, cfg XprocConfig, rt string, shapes []platform.NodeGroup, w routeWorkload) (RouteRow, error) {
	procs, cleanup, err := spawnAgents(ctx, cfg.Platform, shapes, cfg.Seed, cfg.Scale)
	if err != nil {
		return RouteRow{}, err
	}
	defer cleanup()

	r, err := router.ByName(rt)
	if err != nil {
		return RouteRow{}, err
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

// runXprocSvcFailPoint replays the failover scenario with the service
// hosted in an agent process that is SIGKILLed mid-stream — a harder kill
// than the in-proc pilot shutdown — and the registry/re-placement loop
// running driver-side.
func runXprocSvcFailPoint(ctx context.Context, cfg SvcFailConfig, client string, shapes []platform.NodeGroup) (SvcFailRow, error) {
	procs, cleanup, err := spawnAgents(ctx, cfg.Platform, shapes, cfg.Seed, cfg.Scale)
	if err != nil {
		return SvcFailRow{}, err
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
		return SvcFailRow{}, err
	}
	row := SvcFailRow{Client: client, HostBefore: procs[0].UID()}

	clock := simtime.NewReal()
	net := msgq.NewNetwork(clock, rng.New(cfg.Seed).Derive("xproc-driver"), nil)
	defer net.Close()
	dial := func(ep proto.Endpoint) (service.Caller, error) {
		return service.Dial(net, clock, "xproc-client", ep)
	}
	err = row.run(ctx, cfg,
		func() (service.Caller, error) { return dial(ep) },
		func() (resolvingCaller, error) { return service.NewResolver(reg, desc.UID, dial, 0) },
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

// RouteTable renders the route scenario, cross-process and in-proc rows
// interleaved per router.
func (r *XprocResult) RouteTable() metrics.Table {
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Cross-process route ablation — %s carved into per-shape agent processes over TCP, %d fat tasks (%dc/%dg) + %d thin tasks (%dc)",
			r.Cfg.Platform, r.Cfg.FatTasks, r.FatCores, r.FatGPUs, r.Cfg.ThinTasks, r.ThinCores),
		Header: []string{"router", "variant", "fat done", "fat failed", "thin done", "thin failed", "rejected"},
	}
	for i, row := range r.Route {
		t.AddRow(slices.Concat([]string{row.Router, "os-process"}, row.cells(r.Cfg.FatTasks, r.Cfg.ThinTasks))...)
		if i < len(r.RouteInproc) {
			t.AddRow(slices.Concat([]string{row.Router, "in-proc"}, r.RouteInproc[i].cells(r.Cfg.FatTasks, r.Cfg.ThinTasks))...)
		}
	}
	return t
}

// SvcFailTable renders the failover scenario, cross-process and in-proc
// rows interleaved per client style.
func (r *XprocResult) SvcFailTable() metrics.Table {
	post := r.Cfg.Requests - r.Cfg.KillAfter
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Cross-process failover ablation — hosting agent SIGKILLed after %d/%d requests (%d post-failover)",
			r.Cfg.KillAfter, r.Cfg.Requests, post),
		Header: []string{"client", "variant", "pre-kill ok", "recovered", "failed", "re-resolved", "endpoint gen"},
	}
	for i, row := range r.SvcFail {
		t.AddRow(slices.Concat([]string{row.Client, "os-process"}, row.cells(r.Cfg.KillAfter, post), []string{fmt.Sprint(row.Generation)})...)
		if i < len(r.SvcFailInproc) {
			in := r.SvcFailInproc[i]
			t.AddRow(slices.Concat([]string{in.Client, "in-proc"}, in.cells(r.Cfg.KillAfter, post), []string{fmt.Sprint(in.Generation)})...)
		}
	}
	return t
}

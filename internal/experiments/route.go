package experiments

// Route ablation on mismatched pilots: the paper's prototype dispatches
// tasks to pilots round-robin ("only a rudimentary load balancing"),
// which binds a task to a pilot at submission time — the opposite of the
// late binding the pilot abstraction promises. On a session holding two
// deliberately mismatched pilots (the hetero campus's fat GPU partition
// and its thin CPU partition as separate pilots), round-robin sends half
// of the whole-fat-node tasks to the thin pilot, where no node shape can
// ever run them; the capacity-fit router consults pilot shapes and live
// scheduler snapshots and runs every task. RunRoute drives that
// comparison end to end and is the `rpexp -exp route` table.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/spec"
	"repro/internal/states"
)

// RouteConfig parameterizes the routing ablation.
type RouteConfig struct {
	// Platform names a mixed-shape catalog platform (default "hetero");
	// one pilot is acquired per node-shape partition.
	Platform string
	// Routers are the strategies compared (default: round-robin and
	// capacity-fit, whose outcomes depend on submission order and static
	// shapes only; least-loaded routes on live wait-pool snapshots, so its
	// row varies from run to run and has to be asked for).
	Routers []string
	// FatTasks is the number of whole-fat-node tasks (default: the fat
	// partition size). These are the shape-constrained probes only the
	// fat pilot can ever run.
	FatTasks int
	// ThinTasks is the number of thin tasks (default: the thin partition
	// size). Any pilot can run these.
	ThinTasks int
	// TaskTime is the simulated task duration (default 5s).
	TaskTime time.Duration
	// Scale is the clock compression (default 2000).
	Scale float64
	// Seed drives determinism.
	Seed uint64
}

// DefaultRouteConfig returns the figure-scale parameterization: one
// whole-node task per fat node plus one thin task per thin node, on the
// hetero campus split into a fat pilot and a thin pilot.
func DefaultRouteConfig() RouteConfig { return RouteConfig{}.withDefaults() }

func (c RouteConfig) withDefaults() RouteConfig {
	if c.Platform == "" {
		c.Platform = "hetero"
	}
	if len(c.Routers) == 0 {
		c.Routers = []string{router.NameRoundRobin, router.NameCapacityFit}
	}
	if c.TaskTime <= 0 {
		c.TaskTime = 5 * time.Second
	}
	if c.Scale <= 0 {
		c.Scale = 2000
	}
	if c.Seed == 0 {
		c.Seed = 6
	}
	return c
}

// RouteRow is one router's outcome on the mismatched pilots.
type RouteRow struct {
	Router     string
	FatDone    int
	FatFailed  int
	ThinDone   int
	ThinFailed int
	// Rejected counts tasks refused at submit (capacity-fit rejects
	// tasks that fit no pilot's shapes; with this workload it stays 0 —
	// every task fits somewhere).
	Rejected int
	// Reroutes counts session-level re-binds (pilot churn; 0 here).
	Reroutes int
}

// RouteResult is the routing-ablation dataset.
type RouteResult struct {
	Cfg RouteConfig
	// FatPilotShapes / ThinPilotShapes describe the two mismatched pilots.
	FatPilotShapes, ThinPilotShapes string
	// FatCores/FatGPUs and ThinCores are the per-task demands.
	FatCores, FatGPUs, ThinCores int
	Rows                         []RouteRow
}

// RunRoute executes the routing ablation: identical workloads on
// identically mismatched pilots, once per router strategy.
func RunRoute(ctx context.Context, cfg RouteConfig) (*RouteResult, error) {
	cfg = cfg.withDefaults()
	shapes, thin, fat, err := shapesOf(cfg.Platform, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: route: %w", err)
	}
	if cfg.FatTasks <= 0 {
		cfg.FatTasks = fat.Count
	}
	if cfg.ThinTasks <= 0 {
		cfg.ThinTasks = thin.Count
	}
	res := &RouteResult{
		Cfg:             cfg,
		FatPilotShapes:  platform.FormatShapes([]platform.NodeGroup{fat}),
		ThinPilotShapes: platform.FormatShapes([]platform.NodeGroup{thin}),
		FatCores:        fat.Spec.Cores,
		FatGPUs:         fat.Spec.GPUs,
		ThinCores:       thin.Spec.Cores,
	}
	w := newRouteWorkload(cfg.FatTasks, cfg.ThinTasks, thin.Spec, fat.Spec, cfg.TaskTime)
	for _, rt := range cfg.Routers {
		row, err := runRoutePoint(ctx, cfg, rt, shapes, w)
		if err != nil {
			return res, fmt.Errorf("experiments: route %s on %s: %w", rt, cfg.Platform, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// routeWorkload is the task list both the in-process and the OS-process
// route points submit: the first fat descriptions are whole-fat-node tasks
// (the shape-constrained probes only the fat pilot can ever run), the rest
// thin tasks any pilot can run.
type routeWorkload struct {
	descs []spec.TaskDescription
	fat   int
}

func newRouteWorkload(fatTasks, thinTasks int, thin, fat platform.NodeSpec, taskTime time.Duration) routeWorkload {
	dur := rng.ConstDuration(taskTime)
	return routeWorkload{fat: fatTasks, descs: append(
		taskBatch(fatTasks, "fat", fat.Cores, fat.GPUs, dur),
		taskBatch(thinTasks, "thin", thin.Cores, 0, dur)...)}
}

// run submits the workload in order through submit — a task the router
// refuses (router.ErrUnroutable) counts as rejected, any other error stops
// the run — then asks settle for the final state of every accepted task, in
// submission order, and tallies them per class. Failures included: a
// misrouted fat task fails fast as unsatisfiable on the thin pilot.
func (w routeWorkload) run(rt string, submit func(spec.TaskDescription) error, settle func() ([]states.State, error)) (RouteRow, error) {
	row := RouteRow{Router: rt}
	var fat []bool // class of each accepted task
	for i, d := range w.descs {
		err := submit(d)
		var unroutable router.ErrUnroutable
		if errors.As(err, &unroutable) {
			row.Rejected++
			continue
		}
		if err != nil {
			return row, err
		}
		fat = append(fat, i < w.fat)
	}
	final, err := settle()
	if err != nil {
		return row, err
	}
	for i, st := range final {
		switch done := st == states.TaskDone; {
		case fat[i] && done:
			row.FatDone++
		case fat[i]:
			row.FatFailed++
		case done:
			row.ThinDone++
		default:
			row.ThinFailed++
		}
	}
	return row, nil
}

// runRoutePoint runs the workload under one router: a session holding
// one pilot per node-shape partition of the platform, fat tasks
// interleaving with the router's rotation, all task outcomes counted.
func runRoutePoint(ctx context.Context, cfg RouteConfig, rt string, shapes []platform.NodeGroup, w routeWorkload) (RouteRow, error) {
	tb, err := newTestbed(core.SessionConfig{Seed: cfg.Seed, FastBoot: true, Router: rt},
		cfg.Scale, pilotPerShape(cfg.Platform, shapes)...)
	if err != nil {
		return RouteRow{}, err
	}
	defer tb.Close()
	tm := tb.TaskManager()
	var tasks []*core.Task
	row, err := w.run(rt,
		func(d spec.TaskDescription) error {
			ts, err := tm.Submit(ctx, d)
			tasks = append(tasks, ts...)
			return err
		},
		func() ([]states.State, error) {
			waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			_ = tm.Wait(waitCtx, tasks...) // task failures are outcomes here, not errors
			if err := waitCtx.Err(); err != nil {
				return nil, fmt.Errorf("tasks did not settle: %w", err)
			}
			final := make([]states.State, len(tasks))
			for i, t := range tasks {
				final[i] = t.State()
			}
			return final, nil
		})
	// Reroutes counts session-level re-binds (pilot churn; 0 here).
	for _, t := range tasks {
		row.Reroutes += t.Reroutes()
	}
	return row, err
}

// Table renders the routing ablation.
func (r *RouteResult) Table() metrics.Table {
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Route ablation — %s split into mismatched pilots (%s | %s), %d fat tasks (%dc/%dg) + %d thin tasks (%dc)",
			r.Cfg.Platform, r.FatPilotShapes, r.ThinPilotShapes,
			r.Cfg.FatTasks, r.FatCores, r.FatGPUs, r.Cfg.ThinTasks, r.ThinCores),
		Header: []string{"router", "fat done", "fat failed", "thin done", "thin failed", "rejected", "reroutes"},
	}
	for _, row := range r.Rows {
		t.AddRow(slices.Concat([]string{row.Router}, row.cells(r.Cfg.FatTasks, r.Cfg.ThinTasks), []string{fmt.Sprint(row.Reroutes)})...)
	}
	return t
}

// cells renders the outcome columns the in-process and the cross-process
// route tables share: fat done, fat failed, thin done, thin failed, rejected.
func (row RouteRow) cells(fatTasks, thinTasks int) []string {
	return []string{
		fmt.Sprintf("%d/%d", row.FatDone, fatTasks),
		fmt.Sprint(row.FatFailed),
		fmt.Sprintf("%d/%d", row.ThinDone, thinTasks),
		fmt.Sprint(row.ThinFailed),
		fmt.Sprint(row.Rejected),
	}
}

package experiments

// Route ablation on mismatched pilots: the paper's prototype dispatches
// tasks to pilots round-robin ("only a rudimentary load balancing"),
// which binds a task to a pilot at submission time — the opposite of the
// late binding the pilot abstraction promises. On a session holding two
// deliberately mismatched pilots (the hetero campus's fat GPU partition
// and its thin CPU partition as separate pilots), round-robin sends half
// of the whole-fat-node tasks to the thin pilot, where no node shape can
// ever run them; the capacity-fit router consults pilot shapes and live
// scheduler snapshots and runs every task. runRoute drives that
// comparison end to end and is the `rpexp -exp route` table.

import (
	"cmp"
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

const (
	routeSeed     = 6
	routeTaskTime = 5 * time.Second // every task's simulated duration
)

// runRoute executes the routing ablation: identical workloads on
// identically mismatched pilots — one whole-node task per fat node plus one
// thin task per thin node — once per router in routeRouters.
func runRoute(ctx context.Context, o Options) ([]metrics.Table, error) {
	o.Platform, o.Seed = cmp.Or(o.Platform, defaultPlatform), cmp.Or(o.Seed, routeSeed)
	shapes, thin, fat, err := shapesOf(o.Platform, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: route: %w", err)
	}
	w := newRouteWorkload(shapes, thin, fat, fat.Count, thin.Count)
	rows, err := routeRows(ctx, o, w)
	if err != nil {
		return nil, err
	}
	t := metrics.Table{
		Title: fmt.Sprintf("Route ablation — %s split into mismatched pilots (%s | %s), %s",
			o.Platform, platform.FormatShapes([]platform.NodeGroup{fat}), platform.FormatShapes([]platform.NodeGroup{thin}), w),
		Header: []string{"router", "fat done", "fat failed", "thin done", "thin failed", "rejected", "reroutes"},
	}
	for _, row := range rows {
		t.AddRow(slices.Concat([]string{row.Router}, row.cells(w), []string{fmt.Sprint(row.Reroutes)})...)
	}
	return []metrics.Table{t}, nil
}

// routeRow is one router's outcome on the mismatched pilots.
type routeRow struct {
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

// routeWorkload is the task list both the in-process and the OS-process
// route points submit to a platform carved into one pilot per node shape:
// the first fatTasks descriptions are whole-fat-node tasks (the
// shape-constrained probes only the fat pilot can ever run), the rest thin
// tasks any pilot can run.
type routeWorkload struct {
	shapes              []platform.NodeGroup
	thin, fat           platform.NodeSpec
	fatTasks, thinTasks int
	descs               []spec.TaskDescription
}

func newRouteWorkload(shapes []platform.NodeGroup, thin, fat platform.NodeGroup, fatTasks, thinTasks int) routeWorkload {
	dur := rng.ConstDuration(routeTaskTime)
	return routeWorkload{
		shapes: shapes, thin: thin.Spec, fat: fat.Spec, fatTasks: fatTasks, thinTasks: thinTasks,
		descs: append(
			taskBatch(fatTasks, "fat", fat.Spec.Cores, fat.Spec.GPUs, dur),
			taskBatch(thinTasks, "thin", thin.Spec.Cores, 0, dur)...),
	}
}

// String describes the workload for a table title.
func (w routeWorkload) String() string {
	return fmt.Sprintf("%d fat tasks (%dc/%dg) + %d thin tasks (%dc)",
		w.fatTasks, w.fat.Cores, w.fat.GPUs, w.thinTasks, w.thin.Cores)
}

// routeRouters are the routers the route and xproc ablations compare:
// blind round-robin against shape-aware capacity-fit. Both decide from
// submission order and static shapes only, so their outcome counts do not
// depend on timing.
var routeRouters = []string{router.NameRoundRobin, router.NameCapacityFit}

// routeRows runs the workload in process once per router.
func routeRows(ctx context.Context, o Options, w routeWorkload) ([]routeRow, error) {
	var rows []routeRow
	for _, rt := range routeRouters {
		row, err := routePoint(ctx, o, rt, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: route %s on %s: %w", rt, o.Platform, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// run submits the workload in order through submit — a task the router
// refuses (router.ErrUnroutable) counts as rejected, any other error stops
// the run — then asks settle for the final state of every accepted task, in
// submission order, and tallies them per class. Failures included: a
// misrouted fat task fails fast as unsatisfiable on the thin pilot.
func (w routeWorkload) run(rt string, submit func(spec.TaskDescription) error, settle func() ([]states.State, error)) (routeRow, error) {
	row := routeRow{Router: rt}
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
		fat = append(fat, i < w.fatTasks)
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

// routePoint runs the workload under one router: a session holding
// one pilot per node-shape partition of the platform, fat tasks
// interleaving with the router's rotation, all task outcomes counted.
func routePoint(ctx context.Context, o Options, rt string, w routeWorkload) (row routeRow, err error) {
	scfg := core.SessionConfig{Seed: o.Seed, FastBoot: true, Router: rt}
	err = runTestbed(scfg, pilotPerShape(o.Platform, w.shapes), func(tb *testbed) error {
		tm := tb.TaskManager()
		var tasks []*core.Task
		row, err = w.run(rt,
			func(d spec.TaskDescription) error {
				ts, err := tm.Submit(ctx, d)
				tasks = append(tasks, ts...)
				return err
			},
			func() ([]states.State, error) {
				// task failures are outcomes here, not errors
				_ = tm.Wait(ctx, tasks...)
				if err := ctx.Err(); err != nil {
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
		return err
	})
	return row, err
}

// cells renders the outcome columns the in-process and the cross-process
// route tables share: fat done, fat failed, thin done, thin failed, rejected.
func (row routeRow) cells(w routeWorkload) []string {
	return []string{
		fmt.Sprintf("%d/%d", row.FatDone, w.fatTasks),
		fmt.Sprint(row.FatFailed),
		fmt.Sprintf("%d/%d", row.ThinDone, w.thinTasks),
		fmt.Sprint(row.ThinFailed),
		fmt.Sprint(row.Rejected),
	}
}

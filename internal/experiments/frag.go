package experiments

// Fragmentation ablation on heterogeneous pilots: the paper's three
// testbeds are each internally homogeneous, but campus-scale machines
// mix node shapes — and there first-fit placement fragments the large
// nodes with small tasks until large work no longer fits, while
// best-fit packs small tasks onto the small nodes and keeps the large
// nodes whole. runFrag drives that comparison end to end (session →
// pilot spanning mixed shapes → policy-driven scheduler) at figure
// scale: saturate a mixed pilot with small holders, then offer one
// whole-fat-node task per fat node and count how many are granted under
// each policy.

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/states"
)

const (
	fragSeed   = 4
	fragPolicy = "best-fit" // the challenger -sched replaces; strict is the baseline
	// Under -churn half the smalls complete after fragHold of simulated
	// time, and fragWaves waves of a quarter as many fresh smalls arrive
	// after the larges are offered.
	fragWaves = 2
	fragHold  = 60 * time.Second
)

// runFrag executes the fragmentation ablation on a pilot spanning every
// node of the platform: once under strict (first-fit) placement, once under
// the challenger policy, on identical workloads of one small holder per
// thin node and one whole-fat-node large per fat node.
//
// Under -churn it runs the steady-state variant: only half the small
// holders run forever, the rest turn over. This measures how much of
// best-fit's fragmentation win survives realistic task turnover — under
// first-fit the permanent holders keep part of the fat partition
// fragmented forever, while the transient churn releases the rest back to
// the waiting larges.
func runFrag(ctx context.Context, o Options) ([]metrics.Table, error) {
	o.Platform, o.Seed = cmp.Or(o.Platform, defaultPlatform), cmp.Or(o.Seed, fragSeed)
	// Every session instantiates the catalog platform identically, so the
	// shapes (and the workload derived from them) are the same per policy.
	shapes, thin, fat, err := shapesOf(o.Platform, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: frag: %w", err)
	}
	smalls, larges := thin.Count, fat.Count
	title := fmt.Sprintf(
		"Fragmentation ablation — %s (%s), %d smalls (%dc) then %d larges (%dc/%dg)",
		o.Platform, platform.FormatShapes(shapes), smalls, thin.Spec.Cores, larges, fat.Spec.Cores, fat.Spec.GPUs)
	totalSmalls := smalls
	if o.Churn {
		totalSmalls += fragWaves * (smalls / 4)
		title += fmt.Sprintf(" — churn: half the smalls complete after %s, %d waves of %d more arrive",
			fragHold, fragWaves, smalls/4)
	}
	t := metrics.Table{
		Title:  title,
		Header: []string{"policy", "smalls granted", "larges granted", "waiting", "core util", "gpu util"},
	}
	nodes := 0
	for _, g := range shapes {
		nodes += g.Count
	}
	policies := []string{"strict"}
	if pol := cmp.Or(o.Sched, fragPolicy); pol != "strict" {
		policies = append(policies, pol)
	}
	for _, pol := range policies {
		row, err := fragPoint(ctx, o, pol, nodes, thin, fat)
		if err != nil {
			return nil, fmt.Errorf("experiments: frag %s on %s: %w", pol, o.Platform, err)
		}
		t.AddRow(pol,
			fmt.Sprintf("%d/%d", row.SmallGranted, totalSmalls),
			fmt.Sprintf("%d/%d", row.LargeGranted, larges),
			fmt.Sprint(row.Waiting),
			fmt.Sprintf("%.3f", row.CoreUtil),
			fmt.Sprintf("%.3f", row.GPUUtil))
	}
	return []metrics.Table{t}, nil
}

// fragRow is one policy's outcome on the saturated mixed pilot.
type fragRow struct {
	SmallGranted, LargeGranted, Waiting int
	CoreUtil, GPUUtil                   float64
}

// fragPoint runs the workload under one policy on a whole-platform pilot
// of nodeCount nodes: one small task per thin node, shaped to it, and one
// large task per fat node, shaped to it.
//
// The plain variant holds every small forever. Under o.Churn half the
// smalls hold forever (the persistent load) and half complete after
// fragHold; the larges are offered against that mix, and fresh small
// arrivals keep churning while the transients drain. The end state is
// deterministic either way: under first-fit the permanent holders pin part
// of the fat partition fragmented and the transient releases hand the rest
// to the waiting larges; under best-fit every small (initial or arriving)
// packs onto the thin partition and all larges run.
func fragPoint(ctx context.Context, o Options, policy string, nodeCount int, thin, fat platform.NodeGroup) (row fragRow, err error) {
	scfg := core.SessionConfig{Seed: o.Seed, FastBoot: true, SchedPolicy: policy}
	err = runTestbed(scfg, []spec.PilotDescription{{Platform: o.Platform, Nodes: nodeCount}}, func(tb *testbed) error {
		p := tb.pilots[0]
		sched := p.Scheduler()
		// Holders sleep far past the measurement window; cancelling taskCtx
		// on return aborts their payloads so the session shuts down cleanly.
		taskCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		const holdFor = 1000 * time.Hour
		hold := rng.ConstDuration(holdFor)
		// Phase 1: the small load. Every small fits, so wait until all of them
		// run before offering large work (inter-class submission order must not
		// race, or the fragmentation pattern would be noisy). Under churn the
		// permanent holders go first, then the transients.
		smalls, cores := thin.Count, thin.Spec.Cores
		initial := [][]spec.TaskDescription{taskBatch(smalls, "small", cores, 0, hold)}
		var arrivals [][]spec.TaskDescription
		if o.Churn {
			churn := rng.ConstDuration(fragHold)
			initial = [][]spec.TaskDescription{
				taskBatch(smalls/2, "perm", cores, 0, hold),
				taskBatch(smalls-smalls/2, "churn", cores, 0, churn),
			}
			for w := 0; w < fragWaves; w++ {
				arrivals = append(arrivals, taskBatch(smalls/4, fmt.Sprintf("wave%d", w), cores, 0, churn))
			}
		}
		for _, descs := range initial {
			if _, err := tb.submitRunning(taskCtx, descs...); err != nil {
				return fmt.Errorf("small holders: %w", err)
			}
		}

		// Phase 2: one whole-fat-node task per fat node; they hold whatever
		// they win. Submit returns with every large in the wait pool, so the
		// waves of phase 3 queue behind them in submission order.
		larges, err := tb.TaskManager().Submit(taskCtx, taskBatch(fat.Count, "large", fat.Spec.Cores, fat.Spec.GPUs, hold)...)
		if err != nil {
			return err
		}
		// Phase 3 (churn): arrival waves behind the larges.
		for _, descs := range arrivals {
			if _, err := tb.TaskManager().Submit(taskCtx, descs...); err != nil {
				return err
			}
		}

		// Phase 4: let the turnover drain. Transient and wave smalls either
		// complete or stay blocked behind an ungrantable large head; long
		// before the holders' hold ends only they and the granted larges run.
		if o.Churn {
			tb.clock.Sleep(holdFor / 2)
		}
		tb.clock.Settle()

		row = fragRow{Waiting: sched.Waiting()}
		for _, t := range larges {
			if t.State() == states.TaskExecuting {
				row.LargeGranted++
			}
		}
		row.SmallGranted = sched.Scheduled() - row.LargeGranted
		var totCores, totGPUs, freeCores, freeGPUs int
		for _, n := range p.Nodes() {
			sp := n.Spec()
			totCores += sp.Cores
			totGPUs += sp.GPUs
			fc, fg, _ := n.Free()
			freeCores += fc
			freeGPUs += fg
		}
		if totCores > 0 {
			row.CoreUtil = 1 - float64(freeCores)/float64(totCores)
		}
		if totGPUs > 0 {
			row.GPUUtil = 1 - float64(freeGPUs)/float64(totGPUs)
		}
		return nil
	})
	return row, err
}

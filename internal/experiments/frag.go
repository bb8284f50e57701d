package experiments

// Fragmentation ablation on heterogeneous pilots: the paper's three
// testbeds are each internally homogeneous, but campus-scale machines
// mix node shapes — and there first-fit placement fragments the large
// nodes with small tasks until large work no longer fits, while
// best-fit packs small tasks onto the small nodes and keeps the large
// nodes whole. RunFrag drives that comparison end to end (session →
// pilot spanning mixed shapes → policy-driven scheduler) at figure
// scale: saturate a mixed pilot with small holders, then offer one
// whole-fat-node task per fat node and count how many are granted under
// each policy.

import (
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

// FragConfig parameterizes the fragmentation ablation.
type FragConfig struct {
	// Platform names the (mixed-shape) catalog platform (default
	// "hetero"). The pilot spans every node of it.
	Platform string
	// Policy is the challenger placement policy compared against the
	// strict/first-fit baseline (default "best-fit"; any
	// scheduler.PolicyByName form works, e.g. "best-fit:k=-1,t=-1").
	Policy string
	// Smalls is the number of small holder tasks, each demanding one
	// whole thin-shaped node's cores (default: the thin partition size).
	Smalls int
	// Larges is the number of large tasks, each demanding one whole
	// fat-shaped node (default: the fat partition size).
	Larges int
	// Scale is the clock compression (default 2000).
	Scale float64
	// Seed drives determinism.
	Seed uint64

	// Churn switches to the steady-state variant: only half the small
	// holders run forever; the other half complete after SmallHold of
	// simulated time, and ChurnWaves waves of Smalls/4 fresh smalls
	// arrive after the larges are offered. This measures how much of
	// best-fit's fragmentation win survives realistic task turnover —
	// under first-fit the permanent holders keep part of the fat
	// partition fragmented forever, while the transient churn releases
	// the rest back to the waiting larges.
	Churn bool
	// ChurnWaves is the number of arrival waves (default 2).
	ChurnWaves int
	// SmallHold is the transient smalls' simulated duration (default 60s).
	SmallHold time.Duration
}

// DefaultFragConfig returns the figure-scale parameterization on the
// hetero campus: enough smalls to fragment a third of the fat partition
// under first-fit, and one large per fat node.
func DefaultFragConfig() FragConfig { return FragConfig{}.withDefaults() }

func (c FragConfig) withDefaults() FragConfig {
	if c.Platform == "" {
		c.Platform = "hetero"
	}
	if c.Policy == "" {
		c.Policy = "best-fit"
	}
	if c.Scale <= 0 {
		c.Scale = 2000
	}
	if c.Seed == 0 {
		c.Seed = 4
	}
	if c.ChurnWaves <= 0 {
		c.ChurnWaves = 2
	}
	if c.SmallHold <= 0 {
		c.SmallHold = 60 * time.Second
	}
	return c
}

// FragRow is one policy's outcome on the saturated mixed pilot.
type FragRow struct {
	Policy       string
	SmallGranted int
	LargeGranted int
	Waiting      int
	CoreUtil     float64
	GPUUtil      float64
}

// FragResult is the fragmentation-ablation dataset.
type FragResult struct {
	Cfg FragConfig
	// Shapes is the pilot's node composition (e.g. "32×128c/16g + 96×16c/0g").
	Shapes string
	// SmallCores / LargeCores / LargeGPUs are the per-task demands derived
	// from the platform's thin and fat shapes.
	SmallCores, LargeCores, LargeGPUs int
	Rows                              []FragRow
}

// RunFrag executes the fragmentation ablation: once under strict
// (first-fit) placement, once under cfg.Policy, on identical workloads.
func RunFrag(ctx context.Context, cfg FragConfig) (*FragResult, error) {
	cfg = cfg.withDefaults()
	// Resolve the workload from the platform's shape mix once, up front:
	// every session instantiates the catalog platform identically, so the
	// shapes (and the defaults derived from them) are the same per policy.
	shapes, thin, fat, err := shapesOf(cfg.Platform, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: frag: %w", err)
	}
	if cfg.Smalls <= 0 {
		cfg.Smalls = thin.Count
	}
	if cfg.Larges <= 0 {
		cfg.Larges = fat.Count
	}
	res := &FragResult{
		Cfg:        cfg,
		Shapes:     platform.FormatShapes(shapes),
		SmallCores: thin.Spec.Cores,
		LargeCores: fat.Spec.Cores,
		LargeGPUs:  fat.Spec.GPUs,
	}
	nodes := 0
	for _, g := range shapes {
		nodes += g.Count
	}
	policies := []string{"strict"}
	if cfg.Policy != "strict" {
		policies = append(policies, cfg.Policy)
	}
	for _, pol := range policies {
		row, err := runFragPoint(ctx, cfg, pol, nodes, thin.Spec, fat.Spec)
		if err != nil {
			return res, fmt.Errorf("experiments: frag %s on %s: %w", pol, cfg.Platform, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runFragPoint runs the workload under one policy on a whole-platform
// pilot of nodeCount nodes, with small tasks shaped to thin and large
// tasks shaped to fat.
//
// The plain variant holds every small forever. Under cfg.Churn half the
// smalls hold forever (the persistent load) and half complete after
// cfg.SmallHold; the larges are offered against that mix, and fresh small
// arrivals keep churning while the transients drain. The end state is
// deterministic either way: under first-fit the permanent holders pin part
// of the fat partition fragmented and the transient releases hand the rest
// to the waiting larges; under best-fit every small (initial or arriving)
// packs onto the thin partition and all larges run.
func runFragPoint(ctx context.Context, cfg FragConfig, policy string, nodeCount int, thin, fat platform.NodeSpec) (FragRow, error) {
	tb, err := newTestbed(core.SessionConfig{Seed: cfg.Seed, FastBoot: true, SchedPolicy: policy},
		cfg.Scale, spec.PilotDescription{Platform: cfg.Platform, Nodes: nodeCount})
	if err != nil {
		return FragRow{}, err
	}
	defer tb.Close()
	p := tb.pilots[0]
	sched := p.Scheduler()
	// Holders sleep far past the measurement window; cancelling taskCtx
	// on return aborts their payloads so the session shuts down cleanly.
	taskCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hold := rng.ConstDuration(1000 * time.Hour)
	// Phase 1: the small load. Every small fits, so wait until all of them
	// run before offering large work (inter-class submission order must not
	// race, or the fragmentation pattern would be noisy). Under churn the
	// permanent holders go first, then the transients.
	initial := [][]spec.TaskDescription{taskBatch(cfg.Smalls, "small", thin.Cores, 0, hold)}
	var arrivals [][]spec.TaskDescription
	if cfg.Churn {
		churn := rng.ConstDuration(cfg.SmallHold)
		initial = [][]spec.TaskDescription{
			taskBatch(cfg.Smalls/2, "perm", thin.Cores, 0, hold),
			taskBatch(cfg.Smalls-cfg.Smalls/2, "churn", thin.Cores, 0, churn),
		}
		for w := 0; w < cfg.ChurnWaves; w++ {
			arrivals = append(arrivals, taskBatch(cfg.Smalls/4, fmt.Sprintf("wave%d", w), thin.Cores, 0, churn))
		}
	}
	for _, descs := range initial {
		if _, err := tb.submitRunning(taskCtx, descs...); err != nil {
			return FragRow{}, fmt.Errorf("small holders: %w", err)
		}
	}

	// Phase 2: one whole-fat-node task per fat node; they hold whatever
	// they win.
	larges, err := tb.TaskManager().Submit(taskCtx, taskBatch(cfg.Larges, "large", fat.Cores, fat.GPUs, hold)...)
	if err != nil {
		return FragRow{}, err
	}
	// Tasks reach the scheduler from per-task goroutines, so wait until
	// every large is admitted (granted or waiting) before offering the
	// waves — otherwise an arrival could race ahead of a large in
	// submission-sequence order and be granted past the blocked head.
	for _, t := range larges {
		if pt, ok := p.Task(t.UID()); ok {
			select {
			case <-pt.Enqueued():
			case <-ctx.Done():
				return FragRow{}, fmt.Errorf("large offers: %w", ctx.Err())
			}
		}
	}

	// Phase 3 (churn): arrival waves behind the larges.
	for _, descs := range arrivals {
		if _, err := tb.TaskManager().Submit(taskCtx, descs...); err != nil {
			return FragRow{}, err
		}
	}

	// Phase 4: let the turnover drain. Transient and wave smalls either
	// complete or stay blocked behind an ungrantable large head; the end
	// state is stable either way: every accepted request is granted or
	// waiting and the grant count has stopped moving.
	total := cfg.TotalSmalls() + cfg.Larges
	waitCtx, cancelWait := context.WithTimeout(ctx, 20*time.Second)
	defer cancelWait()
	stable, last := 0, -1
	err = pollUntil(waitCtx, fmt.Sprintf("%d requests granted or waiting and grants settled", total),
		20*time.Millisecond, func() bool {
			g := sched.Scheduled()
			if g+sched.Waiting() == total && g == last {
				stable++
			} else {
				stable = 0
			}
			last = g
			return stable >= 3
		})
	if err != nil {
		return FragRow{}, err
	}

	row := FragRow{Policy: policy, Waiting: sched.Waiting()}
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
	return row, nil
}

// TotalSmalls returns how many small tasks the configuration submits in
// total: the initial holders plus, under churn, every arrival wave.
func (c FragConfig) TotalSmalls() int {
	if !c.Churn {
		return c.Smalls
	}
	return c.Smalls + c.ChurnWaves*(c.Smalls/4)
}

// Table renders the fragmentation ablation.
func (r *FragResult) Table() metrics.Table {
	title := fmt.Sprintf(
		"Fragmentation ablation — %s (%s), %d smalls (%dc) then %d larges (%dc/%dg)",
		r.Cfg.Platform, r.Shapes, r.Cfg.Smalls, r.SmallCores,
		r.Cfg.Larges, r.LargeCores, r.LargeGPUs)
	if r.Cfg.Churn {
		title += fmt.Sprintf(" — churn: half the smalls complete after %s, %d waves of %d more arrive",
			r.Cfg.SmallHold, r.Cfg.ChurnWaves, r.Cfg.Smalls/4)
	}
	t := metrics.Table{
		Title:  title,
		Header: []string{"policy", "smalls granted", "larges granted", "waiting", "core util", "gpu util"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			fmt.Sprintf("%d/%d", row.SmallGranted, r.Cfg.TotalSmalls()),
			fmt.Sprintf("%d/%d", row.LargeGranted, r.Cfg.Larges),
			fmt.Sprintf("%d", row.Waiting),
			fmt.Sprintf("%.3f", row.CoreUtil),
			fmt.Sprintf("%.3f", row.GPUUtil))
	}
	return t
}

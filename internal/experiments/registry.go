package experiments

// The experiment registry: everything cmd/rpexp can run, in the order
// `-exp all` runs it. Adding an experiment is one entry here.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/usecases"
)

// Options are the experiment-facing rpexp flags, one field per flag. A
// zero value means "the experiment's default"; each entry passes on the
// fields its config has and ignores the rest.
type Options struct {
	Deploy    string // -deploy: local|remote|both (Exp 2/3)
	Scaling   string // -scaling: strong|weak|both (Exp 2/3)
	Counts    string // -counts: comma-separated instance counts (Exp 1)
	Requests  int    // -requests: request budget
	Seed      uint64 // -seed
	Sched     string // -sched: pilot scheduling policy
	Router    string // -router: session task router
	Platform  string // -platform: mixed-shape platform (frag, route, svcfail, xproc)
	Churn     bool   // -churn: steady-state variant of frag
	Scenarios string // -scenarios: name filter for load
	Balance   string // -balance: picker list for hotspot
}

// Validate rejects option values no experiment could run, all of them at
// once, so the caller can refuse them before anything starts.
func (o Options) Validate() error {
	_, sched := scheduler.PolicyByName(o.Sched)
	_, rt := router.ByName(o.Router)
	_, deploy := o.deployments()
	_, scaling := o.scalings()
	_, counts := o.counts()
	return errors.Join(sched, rt, deploy, scaling, counts)
}

func (o Options) deployments() ([]Deployment, error) {
	return oneOrBoth("deploy", o.Deploy, DeployLocal, DeployRemote)
}

func (o Options) scalings() ([]Scaling, error) {
	return oneOrBoth("scaling", o.Scaling, ScalingStrong, ScalingWeak)
}

// oneOrBoth resolves a two-valued flag: either value selects itself,
// "both" (or nothing) selects the pair in order.
func oneOrBoth[T ~string](flag, v string, a, b T) ([]T, error) {
	switch v {
	case string(a), string(b):
		return []T{T(v)}, nil
	case "both", "":
		return []T{a, b}, nil
	}
	return nil, fmt.Errorf("unknown -%s %q (want %s|%s|both)", flag, v, a, b)
}

// counts parses the -counts list; empty selects the paper sweep.
func (o Options) counts() ([]int, error) {
	var out []int
	for _, part := range splitList(o.Counts) {
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Section is one titled block of an experiment's output.
type Section struct {
	Title  string
	Tables []metrics.Table
}

// Experiment is one registry entry: the -exp name, a title, and the
// function that runs it under the given options.
type Experiment struct {
	Name  string
	Title string
	Run   func(ctx context.Context, o Options) ([]Section, error)
}

// Registry returns every experiment in the order `-exp all` runs them.
func Registry() []Experiment {
	return []Experiment{
		single("table1", "Table I", func(context.Context, Options) ([]metrics.Table, error) {
			return []metrics.Table{usecases.TableI()}, nil
		}),
		single("table2", "Table II", func(context.Context, Options) ([]metrics.Table, error) {
			return []metrics.Table{TableII()}, nil
		}),
		single("1", "Experiment 1 (Fig. 3)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			counts, err := o.counts()
			if err != nil {
				return nil, err
			}
			return table(RunBT(ctx, BTConfig{Counts: counts, Seed: o.Seed, SchedPolicy: o.Sched, Router: o.Router}))
		}),
		single("frag", "Fragmentation ablation (heterogeneous pilot)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			return table(RunFrag(ctx, FragConfig{Platform: o.Platform, Churn: o.Churn, Policy: o.Sched, Seed: o.Seed}))
		}),
		single("route", "Route ablation (mismatched pilots)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			cfg := RouteConfig{Platform: o.Platform, Seed: o.Seed}
			if o.Router != "" {
				// -router selects the single challenger row
				cfg.Routers = []string{router.NameRoundRobin, o.Router}
			}
			return table(RunRoute(ctx, cfg))
		}),
		single("svcfail", "Service-failover ablation (endpoint registry)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			return table(RunSvcFail(ctx, SvcFailConfig{Platform: o.Platform, Requests: o.Requests, Seed: o.Seed}))
		}),
		single("load", "Load matrix (open-loop campaigns on the virtual clock)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			return table(RunLoad(ctx, LoadConfig{ScenarioFilter: o.Scenarios, Requests: o.Requests, Seed: o.Seed}))
		}),
		single("scale", "Serving scalability (batching + replica autoscaling)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			return table(RunScale(ctx, ScaleConfig{Requests: o.Requests, Seed: o.Seed}))
		}),
		single("hotspot", "Hotspot-balancing ablation (p2c vs blind vs full-scan)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			res, err := RunHotspot(ctx, HotspotConfig{Balancers: splitList(o.Balance), Requests: o.Requests, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			return []metrics.Table{res.Table(), res.FailoverTable()}, nil
		}),
		single("xproc", "Cross-process ablation (pilots as OS processes over TCP)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			res, err := RunXproc(ctx, XprocConfig{Platform: o.Platform, Requests: o.Requests, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			return []metrics.Table{res.RouteTable(), res.SvcFailTable()}, nil
		}),
		single("crashrec", "Crash-recovery ablation (write-ahead journal)", func(ctx context.Context, o Options) ([]metrics.Table, error) {
			return table(RunCrashRec(ctx, CrashRecConfig{Seed: o.Seed}))
		}),
		rtSweep("2", "Experiment 2", "noop"),
		rtSweep("3", "Experiment 3", "llama-8b"),
	}
}

// single builds an experiment whose output is one section under its title.
func single(name, title string, run func(context.Context, Options) ([]metrics.Table, error)) Experiment {
	return Experiment{Name: name, Title: title, Run: func(ctx context.Context, o Options) ([]Section, error) {
		tables, err := run(ctx, o)
		if err != nil {
			return nil, err
		}
		return []Section{{Title: title, Tables: tables}}, nil
	}}
}

// table adapts a Run* result to the one table most experiments print.
func table[R interface{ Table() metrics.Table }](res R, err error) ([]metrics.Table, error) {
	if err != nil {
		return nil, err
	}
	return []metrics.Table{res.Table()}, nil
}

// rtSweep builds Exp 2 or 3: one section per selected (deployment,
// scaling) pair of the model's response-time sweep.
func rtSweep(name, title, model string) Experiment {
	return Experiment{Name: name, Title: title, Run: func(ctx context.Context, o Options) ([]Section, error) {
		deployments, err := o.deployments()
		if err != nil {
			return nil, err
		}
		scalings, err := o.scalings()
		if err != nil {
			return nil, err
		}
		var out []Section
		for _, d := range deployments {
			for _, sc := range scalings {
				res, err := RunRT(ctx, RTConfig{
					Model: model, Deploy: d, Pairs: pairsFor(sc),
					RequestsPerClient: o.Requests, Seed: o.Seed, SchedPolicy: o.Sched, Router: o.Router,
				})
				if err != nil {
					return out, err
				}
				out = append(out, Section{Title: fmt.Sprintf("%s (%s, %s)", title, d, sc), Tables: []metrics.Table{res.Table()}})
			}
		}
		return out, nil
	}}
}

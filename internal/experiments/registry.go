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

// Options are the experiment-facing rpexp flags, one field per flag, and
// the only configuration an experiment reads. A zero value means "the
// experiment's default"; each experiment reads the fields it has a use for
// and ignores the rest.
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
	var requests error
	if o.Requests < 0 {
		requests = fmt.Errorf("bad -requests %d", o.Requests)
	}
	return errors.Join(sched, rt, deploy, scaling, counts, requests)
}

func (o Options) deployments() ([]deployment, error) {
	return oneOrBoth("deploy", o.Deploy, deployLocal, deployRemote)
}

func (o Options) scalings() ([]scaling, error) {
	return oneOrBoth("scaling", o.Scaling, scalingStrong, scalingWeak)
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

// defaultPlatform is the mixed-shape campus the frag, route, svcfail and
// xproc ablations run on unless -platform names another.
const defaultPlatform = "hetero"

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
			return []metrics.Table{tableII()}, nil
		}),
		single("1", "Experiment 1 (Fig. 3)", runExp1),
		single("frag", "Fragmentation ablation (heterogeneous pilot)", runFrag),
		single("route", "Route ablation (mismatched pilots)", runRoute),
		single("svcfail", "Service-failover ablation (endpoint registry)", runSvcFail),
		single("load", "Load matrix (open-loop campaigns on the virtual clock)", runLoad),
		single("scale", "Serving scalability (batching + replica autoscaling)", runScale),
		single("hotspot", "Hotspot-balancing ablation (p2c vs blind vs full-scan)", runHotspot),
		single("xproc", "Cross-process ablation (pilots as OS processes over TCP)", runXproc),
		single("crashrec", "Crash-recovery ablation (write-ahead journal)", runCrashRec),
		exp2.sweep("2", "Experiment 2"),
		exp3.sweep("3", "Experiment 3"),
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

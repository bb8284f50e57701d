// Command rpexp regenerates the paper's tables and figures and runs the
// ablations added since, one registry entry of internal/experiments each.
//
// Usage:
//
//	rpexp [-exp name|all] [-deploy d] [-scaling s] [-counts list] [-requests n]
//	      [-seed n] [-sched policy] [-router name] [-platform name] [-churn]
//	      [-scenarios list] [-balance list] [-cpuprofile file] [-memprofile file]
//
// `rpexp -exp <unknown>` lists the experiments; `rpexp -h` explains the
// flags. Each experiment reads the flags its configuration has and
// ignores the rest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/xproc"
)

func main() {
	// When re-executed as a pilot agent (RPPILOT_AGENT set), become one
	// before anything else; never returns in that case.
	xproc.MaybeRunAgent()
	os.Exit(run(experiments.Registry(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses and validates args, runs the
// selected registry entries in registry order and returns the exit code
// (2: rejected before anything ran, 1: an experiment or a profile failed).
func run(registry []experiments.Experiment, args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}

	var o experiments.Options
	fs := flag.NewFlagSet("rpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	fs.StringVar(&o.Deploy, "deploy", "both", "deployment for exp 2/3: local|remote|both")
	fs.StringVar(&o.Scaling, "scaling", "both", "scaling for exp 2/3: strong|weak|both")
	fs.StringVar(&o.Counts, "counts", "", "comma-separated instance counts for exp 1 (default: paper sweep)")
	fs.IntVar(&o.Requests, "requests", 0, "requests per client (default: paper values)")
	fs.Uint64Var(&o.Seed, "seed", 0, "override RNG seed (0: per-experiment defaults)")
	fs.StringVar(&o.Sched, "sched", "", "pilot scheduling policy: strict|backfill[:k=N,t=D]|best-fit[:k=N,t=D] (default strict)")
	fs.StringVar(&o.Router, "router", "", "session task router: round-robin|least-loaded|capacity-fit, optionally +retry (default round-robin; for -exp route it selects the single challenger row)")
	fs.StringVar(&o.Platform, "platform", "hetero", "mixed-shape platform for the frag/route ablations")
	fs.BoolVar(&o.Churn, "churn", false, "steady-state fragmentation ablation: transient holders + arrival waves")
	fs.StringVar(&o.Scenarios, "scenarios", "", "comma-separated scenario name filter for -exp load (default: full catalog)")
	fs.StringVar(&o.Balance, "balance", "", "comma-separated picker list for -exp hotspot: p2c|round-robin|least-loaded (default: all three)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintf(stderr, "rpexp: %v\n", err)
		return 2
	}
	var selected []experiments.Experiment
	for _, e := range registry {
		if *exp == "all" || *exp == e.Name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "rpexp: unknown -exp %q; the experiments are:\n", *exp)
		for _, e := range registry {
			fmt.Fprintf(stderr, "  %-9s %s\n", e.Name, e.Title)
		}
		return 2
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "rpexp: %v\n", err)
		return 2
	}
	code := 0
	for _, e := range selected {
		sections, err := e.Run(context.Background(), o)
		for _, s := range sections {
			fmt.Fprintf(stdout, "== %s ==\n", s.Title)
			for _, t := range s.Tables {
				fmt.Fprint(stdout, t.Render())
			}
			fmt.Fprintln(stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "rpexp: %s: %v\n", e.Title, err)
			code = 1
			break
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "rpexp: %v\n", err)
		code = 1
	}
	return code
}

// startProfiles creates the named profile files (an empty name skips one)
// and starts the CPU profile. The returned function stops it, writes the
// allocation profile after a collection, closes both files and reports
// everything that failed.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpu, mem *os.File
	stop := func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // the profile counts what the last collection saw
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}
	var err error
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, errors.Join(err, stop())
		}
	}
	return stop, nil
}

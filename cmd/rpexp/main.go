// Command rpexp regenerates the paper's tables and figures: Table I (use
// cases), Table II (experiment setup), Fig. 3 (Exp 1, bootstrap-time
// scaling), Figs. 4/5 (Exp 2, local/remote NOOP response time) and Fig. 6
// (Exp 3, llama inference time) — plus the fragmentation ablation on a
// heterogeneous (mixed node shape) pilot, which the paper's homogeneous
// testbeds cannot exhibit.
//
// Usage:
//
//	rpexp -exp all
//	rpexp -exp 1 -counts 1,8,64,320,640
//	rpexp -exp 2 -deploy remote -scaling weak
//	rpexp -exp 3 -deploy local -requests 4
//	rpexp -exp frag -platform hetero -sched best-fit
//	rpexp -exp frag -churn
//	rpexp -exp route -platform hetero
//	rpexp -exp route -router capacity-fit
//	rpexp -exp svcfail -platform hetero
//	rpexp -exp crashrec
//	rpexp -exp load -scenarios steady,churn
//	rpexp -exp scale
//	rpexp -exp hotspot -balance p2c,round-robin
//	rpexp -exp xproc
//	rpexp -exp load -scenarios steady -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/usecases"
	"repro/internal/xproc"
)

func main() {
	// When re-executed as a pilot agent (RPPILOT_AGENT set), become one
	// before anything else; never returns in that case.
	xproc.MaybeRunAgent()

	exp := flag.String("exp", "all", "experiment: 1|2|3|frag|route|svcfail|crashrec|load|scale|hotspot|xproc|table1|table2|all")
	deploy := flag.String("deploy", "both", "deployment for exp 2/3: local|remote|both")
	scaling := flag.String("scaling", "both", "scaling for exp 2/3: strong|weak|both")
	counts := flag.String("counts", "", "comma-separated instance counts for exp 1 (default: paper sweep)")
	requests := flag.Int("requests", 0, "requests per client (default: paper values)")
	seed := flag.Uint64("seed", 0, "override RNG seed (0: per-experiment defaults)")
	sched := flag.String("sched", "", "pilot scheduling policy: strict|backfill[:k=N,t=D]|best-fit[:k=N,t=D] (default strict)")
	rt := flag.String("router", "", "session task router: round-robin|least-loaded|capacity-fit, optionally +retry (default round-robin; for -exp route it selects the single challenger row)")
	plat := flag.String("platform", "hetero", "mixed-shape platform for the frag/route ablations")
	churn := flag.Bool("churn", false, "steady-state fragmentation ablation: transient holders + arrival waves")
	scenarios := flag.String("scenarios", "", "comma-separated scenario name filter for -exp load (default: full catalog)")
	balance := flag.String("balance", "", "comma-separated picker list for -exp hotspot: p2c|round-robin|least-loaded (default: all three)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file when the run ends")
	flag.Parse()

	if _, err := scheduler.PolicyByName(*sched); err != nil {
		fmt.Fprintf(os.Stderr, "rpexp: %v\n", err)
		os.Exit(2)
	}
	if _, err := router.ByName(*rt); err != nil {
		fmt.Fprintf(os.Stderr, "rpexp: %v\n", err)
		os.Exit(2)
	}

	want := func(s string) bool { return *exp == "all" || *exp == s }
	var bootCounts []int
	if want("1") && *counts != "" {
		bootCounts = parseCounts(*counts)
	}

	// From here on every way out goes through exit, which finishes the
	// profiles first.
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpexp: %v\n", err)
		os.Exit(2)
	}
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "rpexp: %v\n", err)
			code = max(code, 1)
		}
		os.Exit(code)
	}

	ctx := context.Background()
	run := func(name string, fn func() error) {
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "rpexp: %s: %v\n", name, err)
			exit(1)
		}
		fmt.Println()
	}

	if want("table1") {
		run("Table I", func() error {
			fmt.Print(usecases.TableI().Render())
			return nil
		})
	}
	if want("table2") {
		run("Table II", func() error {
			fmt.Print(experiments.TableII().Render())
			return nil
		})
	}
	if want("1") {
		run("Experiment 1 (Fig. 3)", func() error {
			cfg := experiments.DefaultBTConfig()
			if bootCounts != nil {
				cfg.Counts = bootCounts
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			cfg.SchedPolicy = *sched
			cfg.Router = *rt
			res, err := experiments.RunBT(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	deployments := func() []experiments.Deployment {
		switch *deploy {
		case "local":
			return []experiments.Deployment{experiments.DeployLocal}
		case "remote":
			return []experiments.Deployment{experiments.DeployRemote}
		default:
			return []experiments.Deployment{experiments.DeployLocal, experiments.DeployRemote}
		}
	}
	scalings := func() []experiments.Scaling {
		switch *scaling {
		case "strong":
			return []experiments.Scaling{experiments.ScalingStrong}
		case "weak":
			return []experiments.Scaling{experiments.ScalingWeak}
		default:
			return []experiments.Scaling{experiments.ScalingStrong, experiments.ScalingWeak}
		}
	}
	if want("frag") {
		run("Fragmentation ablation (heterogeneous pilot)", func() error {
			cfg := experiments.DefaultFragConfig()
			cfg.Platform = *plat
			cfg.Churn = *churn
			if *sched != "" {
				cfg.Policy = *sched
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunFrag(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	if want("route") {
		run("Route ablation (mismatched pilots)", func() error {
			cfg := experiments.DefaultRouteConfig()
			cfg.Platform = *plat
			if *rt != "" {
				cfg.Routers = []string{"round-robin", *rt}
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunRoute(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	if want("svcfail") {
		run("Service-failover ablation (endpoint registry)", func() error {
			cfg := experiments.DefaultSvcFailConfig()
			cfg.Platform = *plat
			if *requests > 0 {
				cfg.Requests = *requests
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunSvcFail(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	if want("load") {
		run("Load matrix (open-loop campaigns on the virtual clock)", func() error {
			cfg := experiments.DefaultLoadConfig()
			cfg.ScenarioFilter = *scenarios
			if *requests > 0 {
				cfg.Requests = *requests
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunLoad(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	if want("scale") {
		run("Serving scalability (batching + replica autoscaling)", func() error {
			cfg := experiments.DefaultScaleConfig()
			if *requests > 0 {
				cfg.Requests = *requests
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunScale(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	if want("hotspot") {
		run("Hotspot-balancing ablation (p2c vs blind vs full-scan)", func() error {
			cfg := experiments.DefaultHotspotConfig()
			if *balance != "" {
				cfg.Balancers = nil
				for _, b := range strings.Split(*balance, ",") {
					if b = strings.TrimSpace(b); b != "" {
						cfg.Balancers = append(cfg.Balancers, b)
					}
				}
			}
			if *requests > 0 {
				cfg.Requests = *requests
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunHotspot(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			fmt.Print(res.FailoverTable().Render())
			return nil
		})
	}
	if want("xproc") {
		run("Cross-process ablation (pilots as OS processes over TCP)", func() error {
			cfg := experiments.DefaultXprocConfig()
			cfg.Platform = *plat
			if *requests > 0 {
				cfg.Requests = *requests
			}
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunXproc(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.RouteTable().Render())
			fmt.Print(res.SvcFailTable().Render())
			return nil
		})
	}
	if want("crashrec") {
		run("Crash-recovery ablation (write-ahead journal)", func() error {
			cfg := experiments.DefaultCrashRecConfig()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			res, err := experiments.RunCrashRec(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Table().Render())
			return nil
		})
	}
	if want("2") {
		for _, d := range deployments() {
			for _, sc := range scalings() {
				d, sc := d, sc
				run(fmt.Sprintf("Experiment 2 (%s, %s)", d, sc), func() error {
					cfg := experiments.DefaultExp2Config(d, sc)
					if *requests > 0 {
						cfg.RequestsPerClient = *requests
					}
					if *seed != 0 {
						cfg.Seed = *seed
					}
					cfg.SchedPolicy = *sched
					cfg.Router = *rt
					res, err := experiments.RunRT(ctx, cfg)
					if err != nil {
						return err
					}
					fmt.Print(res.Table().Render())
					return nil
				})
			}
		}
	}
	if want("3") {
		for _, d := range deployments() {
			for _, sc := range scalings() {
				d, sc := d, sc
				run(fmt.Sprintf("Experiment 3 (%s, %s)", d, sc), func() error {
					cfg := experiments.DefaultExp3Config(d, sc)
					if *requests > 0 {
						cfg.RequestsPerClient = *requests
					}
					if *seed != 0 {
						cfg.Seed = *seed
					}
					cfg.SchedPolicy = *sched
					cfg.Router = *rt
					res, err := experiments.RunRT(ctx, cfg)
					if err != nil {
						return err
					}
					fmt.Print(res.Table().Render())
					return nil
				})
			}
		}
	}
	exit(0)
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

func parseCounts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "rpexp: bad count %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

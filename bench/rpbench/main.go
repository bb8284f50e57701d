// Command rpbench is the repository's benchmark: six workloads that push
// requests and tasks through the whole pilot/service runtime, the
// end-to-end metrics a user of it would see, and a traced run that prices
// each layer and sums the layers against the end-to-end figure.
//
//	rpbench -seed 7                     every workload, end-to-end metrics
//	rpbench -seed 7 -trace 1            every workload, per-layer metrics and budget
//	rpbench -workload tcp_small ...     one workload in this process (what the driver runs)
//	rpbench -repeat 10 -out a.json      ten runs per workload, raw results kept
//	rpbench -compare a.json b.json      apply the bounds to two result files
//	rpbench -list | -spec | -smoke
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/xproc"
)

func main() {
	// The tcp_* workloads spawn their pilot agent by re-executing this
	// binary; in that child this call never returns.
	xproc.MaybeRunAgent()

	var (
		cfg      runConfig
		workload = flag.String("workload", "", "run one workload in this process and print its result as the last line")
		trace    = flag.Int("trace", 0, "1: traced run (spans, probes, per-layer metrics); 0: end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "runs per workload when running all of them; run i uses seed+i")
		out      = flag.String("out", "", "with all workloads: write every run's raw result to this file")
		result   = flag.String("result", "", "with -workload: also write the full result, notes included, to this file")
		tmp      = flag.String("tmp", "", "scratch directory for WAL files (default: a new directory under .bench_build/tmp)")
		list     = flag.Bool("list", false, "print every workload, metric, unit and bound")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as generated from the tables in spec.go")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: parent.json change.json")
		commit   = flag.String("commit", "", "commit recorded in -out (the checkout the driver runs in is not a git repository)")
	)
	flag.Uint64Var(&cfg.Seed, "seed", 7, "the only source of randomness: the same seed generates the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "length of the measured phase of one run")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "every workload at 1/100 size, untraced and traced, checks on, timings meaningless")
	flag.StringVar(&cfg.Spans, "spans", "", "with -trace 1: write the spans here (with all workloads: a directory)")
	flag.Parse()
	cfg.Trace = *trace != 0

	switch {
	case *list:
		fmt.Print(listing())
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case cfg.Smoke:
		if err := withTmp(&cfg, *tmp, smoke); err != nil {
			fatal(err)
		}
	case *workload != "":
		err := withTmp(&cfg, *tmp, func(cfg runConfig) error { return runOne(*workload, cfg, *result) })
		if errors.Is(err, errChecksMissed) {
			os.Exit(1) // the result line is out, with "correct": false
		}
		if err != nil {
			fatal(err)
		}
	default:
		if err := runAll(cfg, *repeat, *out, *commit); err != nil {
			fatal(err)
		}
	}
}

// errChecksMissed is runOne's error for a run that finished and printed its
// result, but missed a correctness check.
var errChecksMissed = errors.New("a correctness check missed")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpbench:", err)
	os.Exit(2)
}

// withTmp runs fn with a scratch directory that is removed afterwards. By
// default it lives under .bench_build in the working directory, so a run
// started from a checkout reads and writes only inside it.
func withTmp(cfg *runConfig, dir string, fn func(runConfig) error) error {
	if dir == "" {
		var err error
		if dir, err = scratchDir(); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	cfg.TmpDir = dir
	return fn(*cfg)
}

// scratchDir makes a new directory under .bench_build/tmp in the working
// directory.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "rpbench-")
}

// runOne runs one workload in this process. The last line of standard
// output is the driver's JSON object; a run whose checks missed still
// prints it, with "correct": false, names the checks on standard error and
// returns errChecksMissed (exit 1).
func runOne(workload string, cfg runConfig, resultPath string) error {
	res, err := runWorkload(workload, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if resultPath != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultPath, raw, 0o644); err != nil {
			return err
		}
	}
	fmt.Print(res.render())
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "rpbench: %s: check missed: %s\n", workload, v)
		}
		return errChecksMissed
	}
	return nil
}

// smoke runs every workload at 1/100 size, untraced and traced, in this
// process. It fails on the first missed check.
func smoke(cfg runConfig) error {
	cfg.Seconds = 0 // one round each
	for _, traced := range []bool{false, true} {
		cfg.Trace = traced
		for _, w := range workloads {
			res, err := runWorkload(w.Name, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (traced=%v): %s", w.Name, traced, strings.Join(res.Violations, "; "))
			}
			fmt.Printf("smoke ok  %-17s traced=%-5v attempted=%d completed=%d failed=%d metrics=%d\n",
				w.Name, traced, res.Attempted, res.Completed, res.Failed, len(res.Metrics))
		}
	}
	return nil
}

// runAll runs every workload repeat times, each run in a fresh child
// process so that peak RSS, heap state and leaked goroutines of one run
// cannot reach the next.
func runAll(cfg runConfig, repeat int, outPath, commit string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if cfg.Spans != "" {
		if err := os.MkdirAll(cfg.Spans, 0o755); err != nil {
			return err
		}
	}
	hostname, _ := os.Hostname()
	rf := resultsFile{Host: hostInfo{
		Hostname: hostname, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commit, Date: time.Now().UTC().Format(time.RFC3339),
	}}
	incorrect := 0
	for i := 0; i < repeat; i++ {
		for _, w := range workloads {
			resultPath := filepath.Join(dir, "result.json")
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed + uint64(i)),
				"-seconds", fmt.Sprint(cfg.Seconds), "-result", resultPath,
			}
			if cfg.Trace {
				args = append(args, "-trace", "1")
				if cfg.Spans != "" {
					args = append(args, "-spans", filepath.Join(cfg.Spans, fmt.Sprintf("%s.seed%d.spans.json", w.Name, cfg.Seed+uint64(i))))
				}
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			// Print the child's report without its last line: that one is
			// for the driver.
			report := strings.TrimRight(string(stdout), "\n")
			if cut := strings.LastIndexByte(report, '\n'); cut >= 0 {
				fmt.Println(report[:cut])
			}
			raw, rerr := os.ReadFile(resultPath)
			if rerr != nil {
				return fmt.Errorf("%s: no result (%v)", w.Name, err)
			}
			var res Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				incorrect++
			}
			rf.Runs = append(rf.Runs, &res)
			_ = os.Remove(resultPath)
		}
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect != 0 {
		return fmt.Errorf("%d runs missed a correctness check", incorrect)
	}
	return nil
}

// Command lucid-run executes one of the three LUCID use-case pipelines
// (§II of the paper) end to end on a simulated Delta pilot and prints the
// per-stage execution report. The pipeline runs on the auto-advancing
// virtual clock, so the report is a function of the flags alone.
//
// Usage:
//
//	lucid-run -pipeline cellpainting
//	lucid-run -pipeline signature -llm
//	lucid-run -pipeline uq -seeds 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/usecases"
	"repro/internal/workflow"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the pipeline and returns the
// exit code (2: bad arguments, 1: the pipeline failed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lucid-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("pipeline", "cellpainting", "pipeline: cellpainting|signature|uq")
	seed := fs.Uint64("seed", 42, "RNG seed")
	useLLM := fs.Bool("llm", true, "signature: enable the LLM comparison stage")
	seeds := fs.Int("seeds", 3, "uq: random seeds per method")
	trials := fs.Int("trials", 8, "cellpainting: HPO trials")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	coll := metrics.NewCollector()
	sig := &usecases.SignatureResults{}
	uq := usecases.UQConfig{Seeds: *seeds}
	src := rng.New(*seed)
	var pipe *workflow.Pipeline
	switch *name {
	case "cellpainting":
		pipe = usecases.CellPainting(usecases.CellPaintingConfig{
			DatasetBytes: 16 << 30, // 16 GB demo-scale slice of the 1.6 TB set
			HPOTrials:    *trials,
		}, src)
	case "signature":
		pipe = usecases.Signature(usecases.SignatureConfig{
			UseLLM:    *useLLM,
			Collector: coll,
			Compute:   true, // real annotation, enrichment and regression on synthetic data
			Results:   sig,
		}, src)
	case "uq":
		pipe = usecases.UQ(uq)
	default:
		fmt.Fprintf(stderr, "lucid-run: unknown pipeline %q\n", *name)
		return 2
	}

	// One driver registered with the clock runs the whole session, so
	// simulated time moves only while the pipeline waits.
	clock := simtime.NewVirtualAuto(core.DefaultOrigin)
	var rep *workflow.Report
	errc := make(chan error, 1)
	clock.Go(func() {
		var err error
		rep, err = runPipeline(clock, *seed, pipe)
		errc <- err
	})
	if err := <-errc; err != nil {
		fmt.Fprintf(stderr, "lucid-run: %v\n", err)
		return 1
	}

	tab := metrics.Table{
		Title:  fmt.Sprintf("Pipeline %q (seed %d) — %s simulated", pipe.Name, *seed, rep.Duration().Round(time.Second)),
		Header: []string{"stage", "tasks", "services", "sim duration"},
	}
	for _, s := range rep.Stages {
		tab.AddRow(s.Stage, fmt.Sprintf("%d", s.Tasks), fmt.Sprintf("%d", s.Services),
			s.Duration().Round(time.Second).String())
	}
	fmt.Fprint(stdout, tab.Render())

	switch *name {
	case "cellpainting":
		prep, _ := rep.StageReport("preprocess-augment")
		train, _ := rep.StageReport("train-hpo")
		if train.Started.Before(prep.Finished) {
			fmt.Fprintf(stdout, "\ntraining started %s before preprocessing finished (asynchronous coupling)\n",
				prep.Finished.Sub(train.Started).Round(time.Second))
		}
	case "signature":
		fit := sig.DoseFit()
		fmt.Fprintf(stdout, "\ndose-response fit: slope=%.2f hits/Gy intercept=%.2f R²=%.3f\n",
			fit.Slope, fit.Intercept, fit.R2)
		if n := coll.Count("sig.llm.inference"); n > 0 {
			fmt.Fprintf(stdout, "LLM signature comparison: %d inferences, %s\n",
				n, coll.Stats("sig.llm.inference"))
		}
	case "uq":
		ft, _ := rep.StageReport("uq-finetuning")
		n := uq.TaskCount()
		fmt.Fprintf(stdout, "\nconcurrency: %d×~15min tasks completed in %s (serial would be ≈%s)\n",
			n, ft.Duration().Round(time.Minute), 15*time.Minute*time.Duration(n))
	}
	return 0
}

// runPipeline runs pipe on a session with one Delta pilot.
func runPipeline(clock simtime.Clock, seed uint64, pipe *workflow.Pipeline) (*workflow.Report, error) {
	sess, err := core.NewSession(core.SessionConfig{Seed: seed, Clock: clock})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		return nil, err
	}
	runner, err := workflow.NewRunner(sess, p)
	if err != nil {
		return nil, err
	}
	return runner.Run(context.Background(), pipe)
}

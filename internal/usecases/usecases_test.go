package usecases

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/workflow"
)

// newRunner builds a Runner over one 256-core, 16-GPU Delta pilot on a
// session on the auto-advancing virtual clock. The test goroutine drives the
// session, so it is registered with the clock for the whole test: time moves
// only while it waits.
func newRunner(t *testing.T, seed uint64) (*workflow.Runner, *core.Session) {
	t.Helper()
	clock := simtime.NewVirtualAuto(core.DefaultOrigin)
	clock.AddRunner()
	t.Cleanup(clock.DoneRunner)
	sess, err := core.NewSession(core.SessionConfig{Seed: seed, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	r, err := workflow.NewRunner(sess, p)
	if err != nil {
		t.Fatal(err)
	}
	return r, sess
}

// timeline renders each stage's start offset and duration, and the
// pipeline's duration, for exact comparison with the model's values.
func timeline(rep *workflow.Report) string {
	var b strings.Builder
	for _, s := range rep.Stages {
		fmt.Fprintf(&b, "%s +%v %v, ", s.Stage, s.Started.Sub(rep.Started), s.Duration())
	}
	fmt.Fprintf(&b, "pipeline %v", rep.Duration())
	return b.String()
}

func TestTableIMatchesPaper(t *testing.T) {
	out := TableI().Render()
	for _, want := range []string{
		"Cell Painting", "Signature Detection", "Uncertainty Quantification",
		"Mutation Detection Analysis", "LLM-based signature comparison",
		"hyperparameter optimization", "Post-processing",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
	// Table I marks exactly two stages as not service-enabled
	if got := strings.Count(out, "No"); got != 2 {
		t.Fatalf("Table I has %d 'No' rows, want 2", got)
	}
}

func TestSampleTrialDeterministic(t *testing.T) {
	a := sampleTrial(rng.New(1).Derive("x"))
	b := sampleTrial(rng.New(1).Derive("x"))
	if a != b {
		t.Fatal("same seed produced different trials")
	}
	if a.LearningRate <= 0 || a.BatchSize <= 0 {
		t.Fatalf("trial = %+v", a)
	}
}

func TestCellPaintingPipelineRuns(t *testing.T) {
	r, sess := newRunner(t, 13)
	cfg := CellPaintingConfig{
		DatasetBytes: 64 << 20, // 64 MB test-scale dataset
		Shards:       4,
		HPOTrials:    4,
		TrainTime:    rng.ConstDuration(2 * time.Minute),
	}
	p := CellPainting(cfg, rng.New(13))
	ctx := context.Background()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	fetch, _ := rep.StageReport("fetch-dataset")
	prep, _ := rep.StageReport("preprocess-augment")
	train, _ := rep.StageReport("train-hpo")
	if prep.Tasks != 4 || train.Tasks != 4 || fetch.Tasks != 1 {
		t.Fatalf("task counts: fetch=%d prep=%d train=%d", fetch.Tasks, prep.Tasks, train.Tasks)
	}
	// asynchronous coupling (§II-A): training starts with preprocessing and
	// runs its trials once the first shard is staged, not the full set
	if got, want := timeline(rep), "fetch-dataset +0s 2.301892134s, preprocess-augment +2.301892134s 6m17.332268296s, train-hpo +2.301892134s 6m23.581825139s, pipeline 6m25.883717273s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
	// every trial carries its hyperparameters
	// with its context already done, WaitBytes returns nil only if the
	// bytes are staged
	done, cancel := context.WithCancel(ctx)
	cancel()
	if err := sess.PilotManager().List()[0].Stage().WaitBytes(done, "delta:/scratch/cellpainting/processed/", 1); err != nil {
		t.Fatalf("no processed data staged: %v", err)
	}
}

func TestSignaturePipelineStructure(t *testing.T) {
	cfg := SignatureConfig{}
	p := Signature(cfg, rng.New(1))
	if len(p.Stages) != 3 {
		t.Fatalf("stages without LLM = %d, want 3", len(p.Stages))
	}
	cfg.UseLLM = true
	p = Signature(cfg, rng.New(1))
	if len(p.Stages) != 4 {
		t.Fatalf("stages with LLM = %d, want 4", len(p.Stages))
	}
	// paper scale: 15 samples
	if got := len(p.Stages[0].Tasks); got != 15 {
		t.Fatalf("VEP tasks = %d, want 15", got)
	}
	// VEP memory requirement
	if p.Stages[0].Tasks[0].MemGB != 3 {
		t.Fatalf("VEP memory = %v GB, want 3", p.Stages[0].Tasks[0].MemGB)
	}
}

func TestSignaturePipelineRunsWithLLM(t *testing.T) {
	r, _ := newRunner(t, 13)
	coll := metrics.NewCollector()
	cfg := SignatureConfig{
		Samples:    4,
		VEPTime:    rng.ConstDuration(90 * time.Second),
		EnrichTime: rng.ConstDuration(60 * time.Second),
		UseLLM:     true,
		LLMQueries: 2,
		Collector:  coll,
	}
	p := Signature(cfg, rng.New(2))
	ctx := context.Background()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if coll.Count("sig.llm.inference") != 2 {
		t.Fatalf("LLM queries recorded = %d, want 2", coll.Count("sig.llm.inference"))
	}
	llm, ok := rep.StageReport("llm-signature-comparison")
	if !ok || llm.Services != 1 {
		t.Fatalf("LLM stage report = %+v", llm)
	}
	// each stage starts the instant the one before it finished
	if got, want := timeline(rep), "vep-annotation +0s 1m32.523205043s, pathway-enrichment +1m32.523205043s 1m1.928522848s, dose-response +2m34.451727891s 2m46.755240473s, llm-signature-comparison +5m21.206968364s 39.500858227s, pipeline 6m0.707826591s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
}

func TestSignatureComputePipelineEndToEnd(t *testing.T) {
	// Compute mode: the pipeline performs real annotation, enrichment and
	// regression on synthetic data. The dose ladder across samples must
	// yield a positive dose-response slope on the radiation pathway.
	r, _ := newRunner(t, 13)
	res := &SignatureResults{}
	cfg := SignatureConfig{
		Samples:    8,
		VEPTime:    rng.ConstDuration(90 * time.Second),
		EnrichTime: rng.ConstDuration(60 * time.Second),
		Compute:    true,
		Results:    res,
	}
	p := Signature(cfg, rng.New(13))
	ctx := context.Background()
	if _, err := r.Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if res.Hits[i] == nil {
			t.Fatalf("sample %d has no hits", i)
		}
		if len(res.Enrichments[i]) == 0 {
			t.Fatalf("sample %d has no enrichment", i)
		}
	}
	fit := res.DoseFit()
	if fit.Slope <= 0 {
		t.Fatalf("dose-response slope %v, want positive (hotspot burden grows with dose)", fit.Slope)
	}
	// the highest-dose sample should rank radiation-response at the top
	top := res.Enrichments[7][0]
	if top.Pathway != "radiation-response" {
		t.Fatalf("high-dose sample's top pathway = %s (p=%g)", top.Pathway, top.PValue)
	}
}

func TestUQPipelineHierarchy(t *testing.T) {
	cfg := UQConfig{}
	if got := cfg.TaskCount(); got != 12 { // 2 methods × 3 seeds × 2 models
		t.Fatalf("default UQ task count = %d, want 12", got)
	}
	p := UQ(cfg)
	if got := len(p.Stages[1].Tasks); got != 12 {
		t.Fatalf("fine-tune tasks = %d", got)
	}
	// three-level hierarchy visible in metadata
	meta := p.Stages[1].Tasks[0].Metadata
	for _, k := range []string{"model", "method", "seed"} {
		if meta[k] == "" {
			t.Fatalf("metadata missing %q: %v", k, meta)
		}
	}
}

func TestUQPipelineRuns(t *testing.T) {
	r, _ := newRunner(t, 13)
	cfg := UQConfig{
		Methods:      []string{"bayesian-lora"},
		Seeds:        2,
		Models:       []string{"llama-8b"},
		FinetuneTime: rng.ConstDuration(30 * time.Minute),
	}
	p := UQ(cfg)
	ctx := context.Background()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	ft, _ := rep.StageReport("uq-finetuning")
	if ft.Tasks != 2 {
		t.Fatalf("fine-tune tasks = %d", ft.Tasks)
	}
	// concurrency: 2 GPU tasks of 30 min on 16 GPUs overlap, so the stage
	// takes one task's 30 min plus launch overhead, not a serial hour
	if got, want := timeline(rep), "data-preparation +0s 37.347418659s, uq-finetuning +37.347418659s 30m1.896784201s, post-processing +30m39.24420286s 1m11.54511063s, pipeline 31m50.78931349s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
}

func TestUQConfigDefaultsPreserved(t *testing.T) {
	cfg := UQConfig{Methods: []string{"a", "b", "c"}, Seeds: 5, Models: []string{"m"}}
	if got := cfg.TaskCount(); got != 15 {
		t.Fatalf("TaskCount = %d, want 15", got)
	}
	if len(cfg.Methods) != 3 {
		t.Fatal("TaskCount mutated the config")
	}
}

// Package usecases implements the three LUCID pipelines of the paper's
// §II as workflow pipelines on the service-enabled runtime. Each builder
// returns a Pipeline whose stages mirror the paper's Table I rows,
// including which stages are enabled as services.
//
// Data sizes, sample counts and stage structure follow the paper: the Cell
// Painting pipeline processes a ~1.6 TB image dataset before ViT
// fine-tuning with Optuna-style hyperparameter search; Signature Detection
// annotates 15 ~300 MB VCF samples with VEP, enriches against
// KEGG/GO-style pathway sets, derives dose-response outputs, and compares
// signatures with an LLM service; Uncertainty Quantification sweeps a
// three-level hierarchy of UQ method × random seed × base model.
package usecases

import (
	"context"
	"fmt"
	"time"

	"sync"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/workflow"
)

// --- Table I -----------------------------------------------------------------

// TableI renders the paper's use-case table.
func TableI() metrics.Table {
	t := metrics.Table{
		Title:  "Table I — Use cases: pipelines, resources, and service-based implementation",
		Header: []string{"ID", "Pipeline Name", "Stage Name", "Resource Type", "Enable as Service"},
	}
	t.AddRow("1", "Cell Painting", "Data pre-processing & augmentation", "CPU", "Yes")
	t.AddRow("", "", "Model training with hyperparameter optimization", "GPU", "Yes")
	t.AddRow("2", "Signature Detection", "Data Preparation", "CPU", "Yes")
	t.AddRow("", "", "Mutation Detection Analysis", "CPU", "No")
	t.AddRow("", "", "LLM-based signature comparison", "GPU", "Yes")
	t.AddRow("3", "Uncertainty Quantification", "Data Preparation", "CPU", "Yes")
	t.AddRow("", "", "UQ methods with three-level parallelism", "GPU", "No")
	t.AddRow("", "", "Post-processing", "GPU", "Yes")
	return t
}

// --- Use case II-A: Cell Painting ---------------------------------------------

// CellPaintingConfig sizes the pipeline. Zero values take paper-scale
// defaults; tests and examples pass reduced sizes.
type CellPaintingConfig struct {
	// DatasetBytes is the raw cell-painting dataset size (paper: ~1.6 TB,
	// staged via Globus).
	DatasetBytes int64
	// Shards is the number of parallel preprocessing tasks.
	Shards int
	// HPOTrials is the number of hyperparameter configurations explored
	// (Optuna-style random search over lr/batch/decay/dropout).
	HPOTrials int
	// TrainTime is the per-trial fine-tuning duration.
	TrainTime rng.DurationDist
}

// preprocessTime is the per-shard CPU processing duration.
var preprocessTime = rng.NormalDuration(5*time.Minute, time.Minute)

func (c *CellPaintingConfig) defaults() {
	if c.DatasetBytes <= 0 {
		c.DatasetBytes = 1_600_000_000_000 // ~1.6 TB
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.HPOTrials <= 0 {
		c.HPOTrials = 8
	}
	if c.TrainTime.IsZero() {
		c.TrainTime = rng.NormalDuration(20*time.Minute, 4*time.Minute)
	}
}

// hpoTrial is one explored hyperparameter configuration.
type hpoTrial struct {
	LearningRate float64
	BatchSize    int
	WeightDecay  float64
	Dropout      float64
}

// sampleTrial draws one Optuna-style random-search configuration.
func sampleTrial(src *rng.Source) hpoTrial {
	lrs := []float64{1e-5, 3e-5, 1e-4, 3e-4}
	batches := []int{16, 32, 64, 128}
	return hpoTrial{
		LearningRate: lrs[src.Intn(len(lrs))],
		BatchSize:    batches[src.Intn(len(batches))],
		WeightDecay:  []float64{0, 0.01, 0.1}[src.Intn(3)],
		Dropout:      []float64{0, 0.1, 0.2, 0.3}[src.Intn(4)],
	}
}

// CellPainting builds the §II-A pipeline: a Globus-style transfer of the
// dataset, CPU preprocessing/augmentation shards feeding a staging area,
// and GPU ViT fine-tuning trials that start as soon as the data gate opens
// — preprocessing and training run asynchronously, trials concurrently.
func CellPainting(cfg CellPaintingConfig, src *rng.Source) *workflow.Pipeline {
	cfg.defaults()
	shardBytes := cfg.DatasetBytes / int64(cfg.Shards)

	// stage 1a: wide-area dataset transfer (Globus analogue)
	fetch := &workflow.Stage{
		Name: "fetch-dataset",
		Tasks: []spec.TaskDescription{{
			Name:  "globus-transfer",
			Cores: 1,
			InputStaging: []spec.StagingDirective{{
				Source: "globus:/lucid/cellpainting-raw",
				Target: "delta:/scratch/cellpainting/raw",
				Bytes:  cfg.DatasetBytes,
				Mode:   spec.StageTransfer,
			}},
		}},
	}

	// stage 1b: preprocessing shards (CPU, service-enabled per Table I —
	// here realized as parallel tasks staging processed shards out)
	var prep []spec.TaskDescription
	for i := 0; i < cfg.Shards; i++ {
		prep = append(prep, spec.TaskDescription{
			Name:     fmt.Sprintf("preprocess-%02d", i),
			Cores:    4,
			Duration: preprocessTime,
			OutputStaging: []spec.StagingDirective{{
				Source: fmt.Sprintf("delta:/scratch/cellpainting/raw/shard-%02d", i),
				Target: fmt.Sprintf("delta:/scratch/cellpainting/processed/shard-%02d", i),
				Bytes:  shardBytes,
				Mode:   spec.StageCopy,
			}},
		})
	}
	preprocess := &workflow.Stage{
		Name:  "preprocess-augment",
		After: []string{"fetch-dataset"},
		Tasks: prep,
	}

	// stage 2: ViT fine-tuning with HPO, gated on processed data. Every
	// trial draws its duration from TrainTime; the sampled hyperparameters
	// only label the task.
	var trials []spec.TaskDescription
	for i := 0; i < cfg.HPOTrials; i++ {
		trial := sampleTrial(src.Derive(fmt.Sprintf("trial-%02d", i)))
		trials = append(trials, spec.TaskDescription{
			Name:     fmt.Sprintf("finetune-vit-%02d", i),
			GPUs:     1,
			Duration: cfg.TrainTime,
			Metadata: map[string]string{
				"lr":      fmt.Sprintf("%g", trial.LearningRate),
				"batch":   fmt.Sprintf("%d", trial.BatchSize),
				"decay":   fmt.Sprintf("%g", trial.WeightDecay),
				"dropout": fmt.Sprintf("%g", trial.Dropout),
			},
		})
	}
	train := &workflow.Stage{
		Name: "train-hpo",
		// asynchronous coupling: training depends on the transfer only; the
		// Pre gate (checked against the DataManager) lets it start as soon
		// as the first processed shards land, while preprocessing continues.
		After: []string{"fetch-dataset"},
		Pre: func(ctx context.Context, sess *core.Session) error {
			pilots := sess.PilotManager().List()
			if len(pilots) == 0 {
				return fmt.Errorf("cellpainting: no pilots")
			}
			// the DataManager gate ("training ... only when sufficient
			// processed data are available"): block until the first processed
			// shard is staged (checked on the pilot hosting the preprocessing
			// tasks)
			return pilots[0].Stage().WaitBytes(ctx, "delta:/scratch/cellpainting/processed/", shardBytes)
		},
		Tasks: trials,
	}

	return &workflow.Pipeline{
		Name:   "cell-painting",
		Stages: []*workflow.Stage{fetch, preprocess, train},
	}
}

// --- Use case II-B: Signature Detection ----------------------------------------

// SignatureConfig sizes the pipeline.
type SignatureConfig struct {
	// Samples is the VCF sample count (paper: 15, ~300 MB each).
	Samples int
	// VEPTime is the per-sample annotation duration (paper: 1-5 min,
	// ~3 GB memory).
	VEPTime rng.DurationDist
	// EnrichTime is the per-sample pathway-enrichment duration (CPU,
	// minutes).
	EnrichTime rng.DurationDist
	// UseLLM adds the LLM-based signature comparison stage.
	UseLLM bool
	// LLMQueries is the number of comparison prompts sent to the service.
	LLMQueries int
	// Collector, when set, receives RT breakdowns of the LLM stage.
	Collector *metrics.Collector
	// Compute attaches real computation (internal/bio) to every stage:
	// synthetic VCF generation + VEP-style annotation, hypergeometric
	// pathway enrichment, and a dose-response fit, with results in
	// Results.
	Compute bool
	// Results receives the computed outputs when Compute is set.
	Results *SignatureResults
}

const (
	// sampleBytes is the per-sample VCF size.
	sampleBytes = 300_000_000
	// variantsPerSample sizes each synthetic sample.
	variantsPerSample = 400
)

// SignatureResults carries the computed outputs of a Compute-enabled
// Signature run. Safe for concurrent task access.
type SignatureResults struct {
	mu sync.Mutex
	// Doses holds the per-sample radiation dose.
	Doses []float64
	// Hits holds per-sample gene hit counts.
	Hits []map[string]int
	// Enrichments holds per-sample pathway enrichments.
	Enrichments [][]bio.Enrichment
	// Fit is the dose-response association over the radiation pathway.
	Fit bio.DoseResponse
}

// DoseFit returns the fitted dose-response.
func (r *SignatureResults) DoseFit() bio.DoseResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Fit
}

func (c *SignatureConfig) defaults() {
	if c.Samples <= 0 {
		c.Samples = 15
	}
	if c.VEPTime.IsZero() {
		c.VEPTime = rng.Seconds(rng.Uniform{Lo: 60, Hi: 300}) // 1-5 min
	}
	if c.EnrichTime.IsZero() {
		c.EnrichTime = rng.NormalDuration(3*time.Minute, 45*time.Second)
	}
	if c.LLMQueries <= 0 {
		c.LLMQueries = 4
	}
}

// Signature builds the §II-B pipeline: concurrent VEP annotation of each
// VCF sample, pathway enrichment, dose-response integration, and —
// optionally — LLM-based signature comparison against a service instance.
// With cfg.Compute set, every stage performs its real computation on
// synthetic data (internal/bio) in addition to its modelled runtime.
func Signature(cfg SignatureConfig, src *rng.Source) *workflow.Pipeline {
	cfg.defaults()

	// computational substrate (shared across stages when Compute is on)
	var (
		model    *bio.GeneModel
		pathways []bio.Pathway
		res      = cfg.Results
	)
	if cfg.Compute {
		if res == nil {
			res = &SignatureResults{}
		}
		model = bio.NewGeneModel(500)
		pathways = bio.SyntheticPathways(model, src.Derive("pathways"), 20, 25)
		res.mu.Lock()
		res.Doses = make([]float64, cfg.Samples)
		res.Hits = make([]map[string]int, cfg.Samples)
		res.Enrichments = make([][]bio.Enrichment, cfg.Samples)
		for i := range res.Doses {
			// dose ladder across samples: 0 .. ~0.9
			res.Doses[i] = float64(i) / float64(cfg.Samples) * 0.9
		}
		res.mu.Unlock()
	}

	var vep []spec.TaskDescription
	for i := 0; i < cfg.Samples; i++ {
		var fn spec.TaskFunc
		if cfg.Compute {
			i := i
			sampleSrc := src.Derive(fmt.Sprintf("sample-%02d", i))
			fn = func(ctx context.Context) error {
				res.mu.Lock()
				dose := res.Doses[i]
				res.mu.Unlock()
				variants := bio.GenerateVCF(sampleSrc.Derive("vcf"), variantsPerSample, dose)
				anns := bio.Annotate(model, sampleSrc.Derive("ann"), variants)
				hits := bio.GeneHits(anns)
				res.mu.Lock()
				res.Hits[i] = hits
				res.mu.Unlock()
				return nil
			}
		}
		vep = append(vep, spec.TaskDescription{
			Name:     fmt.Sprintf("vep-annotate-%02d", i),
			Cores:    1,
			MemGB:    3, // paper: ~3 GB per VEP run
			Duration: cfg.VEPTime,
			Func:     fn,
			InputStaging: []spec.StagingDirective{{
				Source: fmt.Sprintf("delta:/data/vcf/sample-%02d.vcf", i),
				Target: fmt.Sprintf("delta:/scratch/sig/vcf/sample-%02d.vcf", i),
				Bytes:  sampleBytes,
				Mode:   spec.StageCopy,
			}},
			OutputStaging: []spec.StagingDirective{{
				Source: fmt.Sprintf("delta:/scratch/sig/vcf/sample-%02d.vcf", i),
				Target: fmt.Sprintf("delta:/scratch/sig/annotated/sample-%02d.json", i),
				Bytes:  sampleBytes / 2,
				Mode:   spec.StageCopy,
			}},
		})
	}
	annotate := &workflow.Stage{Name: "vep-annotation", Tasks: vep}

	var enrich []spec.TaskDescription
	for i := 0; i < cfg.Samples; i++ {
		var fn spec.TaskFunc
		if cfg.Compute {
			i := i
			fn = func(ctx context.Context) error {
				res.mu.Lock()
				hits := res.Hits[i]
				res.mu.Unlock()
				if hits == nil {
					return fmt.Errorf("signature: sample %d has no annotation hits", i)
				}
				enr := bio.Enrich(model, hits, pathways)
				res.mu.Lock()
				res.Enrichments[i] = enr
				res.mu.Unlock()
				return nil
			}
		}
		enrich = append(enrich, spec.TaskDescription{
			Name:     fmt.Sprintf("pathway-enrich-%02d", i),
			Cores:    4, // "can be parallelized across multiple cores"
			Duration: cfg.EnrichTime,
			Func:     fn,
		})
	}
	enrichment := &workflow.Stage{
		Name:  "pathway-enrichment",
		After: []string{"vep-annotation"},
		Tasks: enrich,
	}

	var doseFn spec.TaskFunc
	if cfg.Compute {
		doseFn = func(ctx context.Context) error {
			// response metric: the radiation-response pathway's overlap per
			// sample, regressed against dose
			var points []bio.DosePoint
			res.mu.Lock()
			for i, enr := range res.Enrichments {
				for _, e := range enr {
					if e.Pathway == "radiation-response" {
						points = append(points, bio.DosePoint{
							Dose: res.Doses[i], Response: float64(e.Overlap),
						})
					}
				}
			}
			res.mu.Unlock()
			fit, err := bio.FitDoseResponse(points)
			if err != nil {
				return err
			}
			res.mu.Lock()
			res.Fit = fit
			res.mu.Unlock()
			return nil
		}
	}
	doseResponse := &workflow.Stage{
		Name:  "dose-response",
		After: []string{"pathway-enrichment"},
		Tasks: []spec.TaskDescription{{
			Name:     "dose-response-integration",
			Cores:    4,
			Duration: rng.NormalDuration(2*time.Minute, 30*time.Second),
			Func:     doseFn,
			OutputStaging: []spec.StagingDirective{{
				Source: "delta:/scratch/sig/dose",
				Target: "delta:/results/sig/dose-response.csv",
				Bytes:  512_000, // "kilobyte to megabyte range"
				Mode:   spec.StageCopy,
			}},
		}},
	}

	stages := []*workflow.Stage{annotate, enrichment, doseResponse}

	if cfg.UseLLM {
		coll := cfg.Collector
		llmStage := &workflow.Stage{
			Name:  "llm-signature-comparison",
			After: []string{"dose-response"},
			Services: []spec.ServiceDescription{{
				TaskDescription: spec.TaskDescription{Name: "sig-llm", GPUs: 1},
				Model:           "llama-8b",
				ProbeInterval:   time.Hour,
			}},
		}
		// the comparison needs session access, so it runs as the Post hook
		llmStage.Post = func(ctx context.Context, sess *core.Session) error {
			eps := sess.EndpointRegistry().ByModel("llama-8b")
			if len(eps) == 0 {
				return fmt.Errorf("signature: no llama-8b endpoint")
			}
			cl, err := sess.Dial("delta//sig-compare-client", eps[0])
			if err != nil {
				return err
			}
			defer cl.Close()
			for q := 0; q < cfg.LLMQueries; q++ {
				prompt := fmt.Sprintf(
					"compare mutational signature %d against KEGG pathway enrichments and hypothesize a low-dose radiation mechanism", q)
				_, rt, err := cl.Infer(ctx, prompt, 128)
				if err != nil {
					return err
				}
				if coll != nil {
					coll.AddAll("sig.llm", rt)
				}
			}
			return nil
		}
		stages = append(stages, llmStage)
	}

	return &workflow.Pipeline{Name: "signature-detection", Stages: stages}
}

// --- Use case II-C: Uncertainty Quantification ----------------------------------

// UQConfig sizes the pipeline's three-level hierarchy.
type UQConfig struct {
	// Methods are the UQ methods compared (paper: e.g. Bayesian LoRA,
	// LoRA ensemble).
	Methods []string
	// Seeds is the number of random seeds per method.
	Seeds int
	// Models are the base LLMs compared (paper: e.g. Llama, Mistral).
	Models []string
	// FinetuneTime is the per-task fine-tuning duration.
	FinetuneTime rng.DurationDist
}

// taskGPUMemGB is the per-task GPU memory demand (paper: 5-60 GB).
const taskGPUMemGB = 24

func (c *UQConfig) defaults() {
	if len(c.Methods) == 0 {
		c.Methods = []string{"bayesian-lora", "lora-ensemble"}
	}
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if len(c.Models) == 0 {
		c.Models = []string{"llama-8b", "mistral-7b"}
	}
	if c.FinetuneTime.IsZero() {
		c.FinetuneTime = rng.NormalDuration(15*time.Minute, 3*time.Minute)
	}
}

// TaskCount returns methods × seeds × models.
func (c UQConfig) TaskCount() int {
	cc := c
	cc.defaults()
	return len(cc.Methods) * cc.Seeds * len(cc.Models)
}

// UQ builds the §II-C pipeline: cheap data preparation, the three-level
// fine-tuning hierarchy at maximal task concurrency, and post-processing.
func UQ(cfg UQConfig) *workflow.Pipeline {
	cfg.defaults()

	prepare := &workflow.Stage{
		Name: "data-preparation",
		Tasks: []spec.TaskDescription{{
			Name:  "prepare-qa-dataset",
			Cores: 1,
			InputStaging: []spec.StagingDirective{{
				Source: "delta:/data/uq/qa-pairs.txt",
				Target: "delta:/scratch/uq/qa-pairs.txt",
				Bytes:  3_400_000, // paper: ~3.4 MB of Q&A text
				Mode:   spec.StageCopy,
			}},
			Duration: rng.NormalDuration(30*time.Second, 5*time.Second),
		}},
	}

	var ft []spec.TaskDescription
	for _, model := range cfg.Models {
		for _, method := range cfg.Methods {
			for seed := 0; seed < cfg.Seeds; seed++ {
				ft = append(ft, spec.TaskDescription{
					Name:     fmt.Sprintf("uq-%s-%s-seed%d", model, method, seed),
					GPUs:     1,
					MemGB:    taskGPUMemGB,
					Duration: cfg.FinetuneTime,
					Metadata: map[string]string{
						"model": model, "method": method, "seed": fmt.Sprintf("%d", seed),
					},
				})
			}
		}
	}
	finetune := &workflow.Stage{
		Name:  "uq-finetuning",
		After: []string{"data-preparation"},
		Tasks: ft,
	}

	post := &workflow.Stage{
		Name:  "post-processing",
		After: []string{"uq-finetuning"},
		Tasks: []spec.TaskDescription{{
			Name:     "aggregate-uq-metrics",
			GPUs:     1,
			Duration: rng.NormalDuration(time.Minute, 10*time.Second),
			OutputStaging: []spec.StagingDirective{{
				Source: "delta:/scratch/uq/metrics",
				Target: "delta:/results/uq/summary.csv",
				Bytes:  64_000,
				Mode:   spec.StageCopy,
			}},
		}},
	}

	return &workflow.Pipeline{
		Name:   "uncertainty-quantification",
		Stages: []*workflow.Stage{prepare, finetune, post},
	}
}

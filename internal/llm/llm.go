// Package llm simulates the ML models the paper serves through its runtime
// services. The paper hosts Meta Llama 3 8B with Ollama and also uses a
// NOOP model that replies instantly (Exp 2); this package reproduces both
// as calibrated performance models: a load/initialization phase (the
// dominant `init` component of bootstrap time in Fig. 3) and a token-rate
// inference phase (the dominant `inference` component of response time in
// Fig. 6).
//
// Substitution note (see DESIGN.md): we do not run a real 8B-parameter
// network — the experiments characterize runtime overheads, which depend
// on *when* and *for how long* the model computes, not on the text it
// produces. The simulated model spends the same (distribution-sampled)
// wall-clock time in the same code path and produces deterministic
// pseudo-text. It draws the text's words but does not spell them: a reply
// carries its draw (Result.TextFrom), and the text is spelled only where
// it is read (proto.InferenceReply.Words, and the encoders that put a
// reply on a wire), so a campaign that reads no text builds none.
package llm

import (
	"fmt"
	"time"
	"unicode"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Spec is the static performance profile of one model.
type Spec struct {
	// Name identifies the model (e.g. "llama-8b", "noop").
	Name string
	// Params is a human-readable parameter count ("8B").
	Params string
	// MemGB is the accelerator memory footprint of one instance.
	MemGB float64
	// LoadTime is the time to load weights and initialize the runtime
	// (paper Fig. 3 `init`).
	LoadTime rng.DurationDist
	// PromptTokensPerSec is the prompt-evaluation throughput.
	PromptTokensPerSec float64
	// GenTokensPerSec is the autoregressive generation throughput.
	GenTokensPerSec float64
	// RateJitter is the relative standard deviation applied per request to
	// both throughputs (thermal/contention noise).
	RateJitter float64
	// DefaultMaxTokens bounds generation when the request does not.
	DefaultMaxTokens int
	// BatchSpill is the batched-inference cost model knob: a batch whose
	// members have solo durations d_i blocks once for
	//
	//	max(d_i) + BatchSpill · (Σ d_i − max(d_i))
	//
	// 0 models perfect overlap (the batch costs only its longest member),
	// 1 models no overlap (sequential execution). Production continuous-
	// batching servers sit near the low end: per-request model overhead
	// (weights traversal, kernel launches) amortizes across the batch and
	// only the marginal per-token work spills.
	BatchSpill float64
	// Noop marks the instant-reply model of Exp 2.
	Noop bool
}

// catalog returns the specs of all known models, keyed by name.
func catalog() map[string]Spec {
	specs := []Spec{
		{
			// Calibrated to the paper's Fig. 3: init dominates bootstrap at
			// roughly half a minute per instance, and Fig. 6: inference of a
			// chat-length reply takes seconds.
			Name: "llama-8b", Params: "8B", MemGB: 16,
			LoadTime:           rng.NormalDuration(26*time.Second, 4*time.Second),
			PromptTokensPerSec: 800, GenTokensPerSec: 35, RateJitter: 0.10,
			DefaultMaxTokens: 128, BatchSpill: 0.25,
		},
		{
			Name: "llama-70b", Params: "70B", MemGB: 80,
			LoadTime:           rng.NormalDuration(95*time.Second, 10*time.Second),
			PromptTokensPerSec: 250, GenTokensPerSec: 9, RateJitter: 0.10,
			DefaultMaxTokens: 128, BatchSpill: 0.25,
		},
		{
			Name: "mistral-7b", Params: "7B", MemGB: 15,
			LoadTime:           rng.NormalDuration(24*time.Second, 4*time.Second),
			PromptTokensPerSec: 850, GenTokensPerSec: 38, RateJitter: 0.10,
			DefaultMaxTokens: 128, BatchSpill: 0.25,
		},
		{
			// ViT for the Cell Painting pipeline (use case II-A): inference
			// here is image classification, modelled as a fixed per-batch
			// compute time via the generation rate.
			Name: "vit-base", Params: "86M", MemGB: 2,
			LoadTime:           rng.NormalDuration(6*time.Second, time.Second),
			PromptTokensPerSec: 5000, GenTokensPerSec: 2000, RateJitter: 0.15,
			DefaultMaxTokens: 16, BatchSpill: 0.10,
		},
		{
			// The paper's Exp 2 NOOP model: "a NOOP model, which will
			// immediately reply without performing any actual inference."
			Name: "noop", Params: "0", MemGB: 0, Noop: true,
		},
	}
	m := make(map[string]Spec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

// Lookup returns the named spec from the catalog.
func Lookup(name string) (Spec, error) {
	s, ok := catalog()[name]
	if !ok {
		return Spec{}, fmt.Errorf("llm: unknown model %q", name)
	}
	return s, nil
}

// Instance is one loaded model. Create with NewInstance, then Load.
type Instance struct {
	spec   Spec
	clock  simtime.Clock
	src    *rng.Source
	loaded bool
}

// NewInstance binds a spec to a clock and a deterministic RNG stream.
func NewInstance(spec Spec, clock simtime.Clock, src *rng.Source) *Instance {
	return &Instance{spec: spec, clock: clock, src: src}
}

// Spec returns the instance's model spec.
func (m *Instance) Spec() Spec { return m.spec }

// Load blocks for the model's load/initialization time. It is the `init`
// phase of the paper's bootstrap measurement.
func (m *Instance) Load() time.Duration {
	d := m.spec.LoadTime.Sample(m.src)
	if d > 0 {
		m.clock.Sleep(d)
	}
	m.loaded = true
	return d
}

// Result is the outcome of one inference.
type Result struct {
	// TextFrom is the stream state at the first of the reply's
	// OutputTokens word draws: the reply's text, drawn but not spelled
	// (proto.InferenceReply carries it on to whoever reads the text).
	TextFrom     uint64
	PromptTokens int
	OutputTokens int
	Duration     time.Duration
}

// Infer runs one inference: it blocks for the modelled duration and
// returns the draw of deterministic pseudo-text. maxTokens <= 0 uses the
// spec default.
// Calling Infer on an unloaded non-noop instance is a programming error
// and panics, mirroring a crash of an unready service.
func (m *Instance) Infer(prompt string, maxTokens int) Result {
	if m.spec.Noop {
		return Result{}
	}
	if !m.loaded {
		panic(fmt.Sprintf("llm: Infer on unloaded model %s", m.spec.Name))
	}
	ptok, otok, d := m.planOne(prompt, maxTokens)
	if d > 0 {
		m.clock.Sleep(d)
	}
	return Result{
		TextFrom:     m.src.Skip(otok),
		PromptTokens: ptok,
		OutputTokens: otok,
		Duration:     d,
	}
}

// planOne draws one request's inference plan — token counts and modelled
// solo duration — consuming exactly the RNG draws of the unbatched path
// in the same order (output length, then one throughput jitter per rate).
// Infer and InferBatch both build on it, which is what makes a batch of
// one byte-identical to an unbatched call.
func (m *Instance) planOne(prompt string, maxTokens int) (ptok, otok int, d time.Duration) {
	if maxTokens <= 0 {
		maxTokens = m.spec.DefaultMaxTokens
	}
	ptok = countTokens(prompt)
	otok = m.outputLength(maxTokens)

	jitter := func(rate float64) float64 {
		if m.spec.RateJitter <= 0 {
			return rate
		}
		f := m.src.Normal(1, m.spec.RateJitter)
		if f < 0.2 {
			f = 0.2
		}
		return rate * f
	}
	if r := jitter(m.spec.PromptTokensPerSec); r > 0 {
		d += time.Duration(float64(ptok) / r * float64(time.Second))
	}
	if r := jitter(m.spec.GenTokensPerSec); r > 0 {
		d += time.Duration(float64(otok) / r * float64(time.Second))
	}
	return ptok, otok, d
}

// BatchItem is one request in a batched inference call, and the place
// InferBatch writes its outcome.
type BatchItem struct {
	Prompt    string
	MaxTokens int    // <= 0 uses the spec default
	Result    Result // written by InferBatch
}

// InferBatch serves several requests as one batched model invocation,
// writing each item's Result in place and returning the batch's duration.
// Each request draws the same per-request randomness as Infer would
// (output length, throughput jitter, pseudo-text), then the batch blocks
// once for the amortized duration of the Spec.BatchSpill cost model:
//
//	D = max(d_i) + BatchSpill · (Σ d_i − max(d_i))
//
// Every result reports D as its Duration — batch members finish together,
// like rows of one forward pass. A batch of one is byte-identical to
// Infer (the sleep consumes no randomness, so drawing text before the
// collective sleep preserves the draw order), making batching safe to
// enable without perturbing unbatched workloads.
func (m *Instance) InferBatch(items []BatchItem) time.Duration {
	if m.spec.Noop {
		for i := range items {
			items[i].Result = Result{}
		}
		return 0
	}
	if !m.loaded {
		panic(fmt.Sprintf("llm: InferBatch on unloaded model %s", m.spec.Name))
	}
	var sum, longest time.Duration
	for i := range items {
		it := &items[i]
		ptok, otok, d := m.planOne(it.Prompt, it.MaxTokens)
		it.Result = Result{
			TextFrom:     m.src.Skip(otok),
			PromptTokens: ptok,
			OutputTokens: otok,
		}
		sum += d
		if d > longest {
			longest = d
		}
	}
	d := longest + time.Duration(float64(sum-longest)*m.spec.BatchSpill)
	if d > 0 {
		m.clock.Sleep(d)
	}
	for i := range items {
		items[i].Result.Duration = d
	}
	return d
}

// outputLength draws the reply length: around 3/4 of the budget with
// spread, clamped to [1, maxTokens].
func (m *Instance) outputLength(maxTokens int) int {
	mean := 0.75 * float64(maxTokens)
	n := int(m.src.Normal(mean, mean/4))
	if n < 1 {
		n = 1
	}
	if n > maxTokens {
		n = maxTokens
	}
	return n
}

// countTokens approximates tokenization: whitespace-split words count ~1.3
// tokens each (subword splitting), matching common LLM tokenizer density.
// Words are what strings.Fields returns, counted in place: runs of runes
// unicode.IsSpace rejects, an invalid UTF-8 byte counting as a non-space
// rune.
func countTokens(text string) int {
	words := 0
	inWord := false
	for _, r := range text {
		space := unicode.IsSpace(r)
		if !space && !inWord {
			words++
		}
		inWord = !space
	}
	if words == 0 {
		return 0
	}
	return (words*13 + 9) / 10
}

// GenerateText produces deterministic pseudo-text of n tokens for the
// given model name and RNG stream, drawing and spelling its words at once:
// it is the text of a reply drawn at the same point of the stream, spelled
// (proto.InferenceReply.Words). The text is its one allocation.
func GenerateText(src *rng.Source, model string, n int) string {
	return proto.InferenceReply{Model: model, OutputTokens: n, TextFrom: src.Skip(n), TextDrawn: true}.Words()
}

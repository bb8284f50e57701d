package llm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func scaled() simtime.Clock { return simtime.NewScaled(100000, origin) }

func TestCatalogContainsPaperModels(t *testing.T) {
	c := catalog()
	for _, name := range []string{"llama-8b", "noop", "mistral-7b", "llama-70b", "vit-base"} {
		if _, ok := c[name]; !ok {
			t.Errorf("catalog missing %q", name)
		}
	}
	if !c["noop"].Noop {
		t.Fatal("noop spec not flagged Noop")
	}
	if c["llama-8b"].MemGB <= 0 {
		t.Fatal("llama-8b has no memory footprint")
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("llama-8b"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("gpt-5"); err == nil {
		t.Fatal("Lookup accepted unknown model")
	}
}

func TestLoadTimeCalibration(t *testing.T) {
	// llama-8b init must land in the tens of seconds (Fig. 3 `init`
	// dominates launch at ~2s and publish at sub-second).
	spec, _ := Lookup("llama-8b")
	src := rng.New(5)
	const n = 200
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += spec.LoadTime.Sample(src)
	}
	mean := sum / n
	if mean < 15*time.Second || mean > 40*time.Second {
		t.Fatalf("llama-8b load mean = %v, want tens of seconds", mean)
	}
}

func TestInstanceLoadBlocksOnClock(t *testing.T) {
	spec, _ := Lookup("llama-8b")
	clock := simtime.NewScaled(100000, origin) // 26s → ~260µs real
	m := NewInstance(spec, clock, rng.New(1))
	if m.loaded {
		t.Fatal("fresh instance claims loaded")
	}
	d := m.Load()
	if !m.loaded {
		t.Fatal("Load did not mark instance loaded")
	}
	if d < 10*time.Second || d > 45*time.Second {
		t.Fatalf("load duration %v outside calibrated band", d)
	}
}

func TestInferUnloadedPanics(t *testing.T) {
	spec, _ := Lookup("llama-8b")
	m := NewInstance(spec, scaled(), rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Infer on unloaded model did not panic")
		}
	}()
	m.Infer("hello", 4)
}

func TestNoopInferInstantWithoutLoad(t *testing.T) {
	spec, _ := Lookup("noop")
	clock := simtime.NewVirtualAuto(origin)
	m := NewInstance(spec, clock, rng.New(1))
	res := m.Infer("anything", 100)
	if res.OutputTokens != 0 || res.Text != "" || res.Duration != 0 {
		t.Fatalf("noop result = %+v", res)
	}
	if now := clock.Now(); !now.Equal(origin) {
		t.Fatalf("noop inference moved the clock to %v", now)
	}
}

func TestNoopLoadIsInstant(t *testing.T) {
	spec, _ := Lookup("noop")
	clock := simtime.NewVirtualAuto(origin)
	m := NewInstance(spec, clock, rng.New(1))
	if d := m.Load(); d != 0 {
		t.Fatalf("noop load = %v", d)
	}
	if now := clock.Now(); !now.Equal(origin) {
		t.Fatalf("noop load moved the clock to %v", now)
	}
}

func TestInferDurationScalesWithTokens(t *testing.T) {
	spec, _ := Lookup("llama-8b")
	spec.RateJitter = 0 // deterministic rates for the comparison
	clock := scaled()
	m := NewInstance(spec, clock, rng.New(2))
	m.Load()
	short := m.Infer("one two three", 8)
	long := m.Infer("one two three", 512)
	if long.Duration <= short.Duration {
		t.Fatalf("512-token budget (%v) not slower than 8 (%v)", long.Duration, short.Duration)
	}
	// generation dominates: 8B at 35 tok/s → 128 default tokens ≈ seconds
	if long.Duration < 500*time.Millisecond {
		t.Fatalf("long inference took %v, want ≥ 0.5s", long.Duration)
	}
}

func TestInferTokenAccounting(t *testing.T) {
	spec, _ := Lookup("llama-8b")
	m := NewInstance(spec, scaled(), rng.New(3))
	m.Load()
	res := m.Infer("the quick brown fox jumps", 64)
	if res.PromptTokens != countTokens("the quick brown fox jumps") {
		t.Fatalf("prompt tokens = %d", res.PromptTokens)
	}
	if res.OutputTokens < 1 || res.OutputTokens > 64 {
		t.Fatalf("output tokens = %d, want in [1,64]", res.OutputTokens)
	}
	if got := countTokens(res.Text); got < res.OutputTokens {
		t.Fatalf("text has %d tokens, fewer than claimed %d", got, res.OutputTokens)
	}
}

func TestInferDefaultMaxTokens(t *testing.T) {
	spec, _ := Lookup("llama-8b")
	m := NewInstance(spec, scaled(), rng.New(4))
	m.Load()
	res := m.Infer("hi", 0)
	if res.OutputTokens > spec.DefaultMaxTokens {
		t.Fatalf("output %d exceeds default budget %d", res.OutputTokens, spec.DefaultMaxTokens)
	}
}

func TestInferDeterministicGivenSeed(t *testing.T) {
	spec, _ := Lookup("llama-8b")
	run := func() Result {
		m := NewInstance(spec, scaled(), rng.New(77))
		m.Load()
		return m.Infer("same prompt", 32)
	}
	a, b := run(), run()
	if a.Text != b.Text || a.OutputTokens != b.OutputTokens || a.Duration != b.Duration {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestCountTokens(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"   ", 0},
		{"hello", 2},                // ceil(1*1.3)
		{"hello world", 3},          // ceil(2*1.3)
		{"a b c d e f g h i j", 13}, // 10 words
	}
	for _, c := range cases {
		if got := countTokens(c.in); got != c.want {
			t.Errorf("countTokens(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestGenerateText(t *testing.T) {
	src := rng.New(9)
	txt := GenerateText(src, "llama-8b", 10)
	if !strings.HasPrefix(txt, "[llama-8b]") {
		t.Fatalf("text = %q", txt)
	}
	if words := len(strings.Fields(txt)); words != 11 { // tag + 10 tokens
		t.Fatalf("generated %d fields, want 11", words)
	}
	if GenerateText(src, "m", 0) != "" {
		t.Fatal("zero-token generation non-empty")
	}
}

func TestOutputLengthProperty(t *testing.T) {
	// Property: output length always lands in [1, maxTokens].
	spec, _ := Lookup("llama-8b")
	m := NewInstance(spec, scaled(), rng.New(10))
	m.Load()
	f := func(budget uint8) bool {
		max := int(budget%200) + 1
		n := m.outputLength(max)
		return n >= 1 && n <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- Continuous batching (PR 8) ----------------------------------------------

// TestInferBatchOfOneByteIdentical: the batching contract's anchor — a
// batch of one must be indistinguishable from Infer, byte for byte and
// duration for duration, so enabling batching never perturbs an
// unbatched workload. Two same-seeded instances serve the same prompts,
// one through Infer and one through InferBatch.
func TestInferBatchOfOneByteIdentical(t *testing.T) {
	mk := func() *Instance {
		spec, err := Lookup("vit-base")
		if err != nil {
			t.Fatal(err)
		}
		return NewInstance(spec, scaled(), rng.New(11).Derive("m"))
	}
	a, b := mk(), mk()
	a.Load()
	b.Load()
	for i := 0; i < 5; i++ {
		prompt := fmt.Sprintf("sample-%d", i)
		ra := a.Infer(prompt, 16)
		rb := b.InferBatch([]BatchItem{{Prompt: prompt, MaxTokens: 16}})[0]
		if ra != rb {
			t.Fatalf("round %d: Infer=%+v InferBatch=%+v", i, ra, rb)
		}
	}
}

// TestInferBatchAmortizesSleep: a batch's single collective sleep is
// max(d_i) + BatchSpill*(sum-max) of the per-item durations — measured
// against a same-seeded twin serving the items one at a time (identical
// RNG stream, so the twin's durations ARE the batch's per-item plans).
// Every batch result must carry the collective duration and the twin's
// exact text and token counts.
func TestInferBatchAmortizesSleep(t *testing.T) {
	spec, err := Lookup("vit-base")
	if err != nil {
		t.Fatal(err)
	}
	batchClock := simtime.NewVirtualAuto(origin)
	m := NewInstance(spec, batchClock, rng.New(23).Derive("m"))
	twin := NewInstance(spec, scaled(), rng.New(23).Derive("m"))
	m.Load()
	twin.Load()

	items := make([]BatchItem, 4)
	for i := range items {
		items[i] = BatchItem{Prompt: fmt.Sprintf("item-%d", i), MaxTokens: 16}
	}
	t0 := batchClock.Now()
	got := m.InferBatch(items)
	elapsed := batchClock.Now().Sub(t0)

	var sum, longest time.Duration
	for i, it := range items {
		want := twin.Infer(it.Prompt, it.MaxTokens)
		sum += want.Duration
		if want.Duration > longest {
			longest = want.Duration
		}
		if got[i].Text != want.Text || got[i].PromptTokens != want.PromptTokens ||
			got[i].OutputTokens != want.OutputTokens {
			t.Fatalf("item %d: batch=%+v single=%+v", i, got[i], want)
		}
	}
	wantD := longest + time.Duration(float64(sum-longest)*spec.BatchSpill)
	if elapsed != wantD {
		t.Fatalf("batch slept %v, want %v (max %v, sum %v)", elapsed, wantD, longest, sum)
	}
	for i, r := range got {
		if r.Duration != wantD {
			t.Fatalf("item %d duration %v, want collective %v", i, r.Duration, wantD)
		}
	}
	if wantD >= sum {
		t.Fatalf("batch of 4 not faster than sequential: %v >= %v", wantD, sum)
	}
}

// TestNoopInferBatchInstant: the noop backend's batches are free and
// empty, one result per item.
func TestNoopInferBatchInstant(t *testing.T) {
	spec, err := Lookup("noop")
	if err != nil {
		t.Fatal(err)
	}
	m := NewInstance(spec, scaled(), rng.New(1))
	res := m.InferBatch(make([]BatchItem, 3))
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
	for i, r := range res {
		if r != (Result{}) {
			t.Fatalf("item %d = %+v, want zero", i, r)
		}
	}
}

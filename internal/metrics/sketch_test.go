package metrics

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
)

// sketchTolerance is the assertion bound for sketch-vs-oracle comparisons:
// the documented relative error α, plus a 1ns absolute slop and a hair of
// relative headroom for float rounding at exact bucket boundaries.
func sketchTolerance(alpha float64, exact time.Duration) time.Duration {
	return time.Duration(alpha*float64(exact)*(1+1e-9)) + 1
}

func checkQuantile(t *testing.T, name string, sk *Sketch, sorted []time.Duration, q float64) {
	t.Helper()
	exact := percentile(sorted, q)
	got := sk.Quantile(q)
	tol := sketchTolerance(sk.Alpha(), exact)
	diff := got - exact
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Fatalf("%s: q=%v sketch=%v exact=%v diff=%v > tol=%v", name, q, got, exact, diff, tol)
	}
}

// adversarialDistributions generates the sample sets of the property test:
// the shapes most likely to break a log-bucketed sketch.
func adversarialDistributions(src *rng.Source) map[string][]time.Duration {
	out := make(map[string][]time.Duration)

	out["single-sample"] = []time.Duration{137 * time.Millisecond}

	constant := make([]time.Duration, 5000)
	for i := range constant {
		constant[i] = 42 * time.Millisecond
	}
	out["constant"] = constant

	bimodal := make([]time.Duration, 20000)
	for i := range bimodal {
		if src.Float64() < 0.9 {
			bimodal[i] = time.Duration(src.Normal(10e6, 1e6)) // ~10ms
		} else {
			bimodal[i] = time.Duration(src.Normal(2e9, 1e8)) // ~2s
		}
		if bimodal[i] < 0 {
			bimodal[i] = 0
		}
	}
	out["bimodal"] = bimodal

	heavy := make([]time.Duration, 20000)
	for i := range heavy {
		heavy[i] = time.Duration(math.Exp(src.Normal(16, 2.5))) // log-normal: spans µs..minutes
	}
	out["heavy-tailed"] = heavy

	uniform := make([]time.Duration, 10000)
	for i := range uniform {
		uniform[i] = time.Duration(src.Float64() * 1e9)
	}
	out["uniform"] = uniform

	expo := make([]time.Duration, 10000)
	for i := range expo {
		expo[i] = time.Duration(src.Exponential(50e6))
	}
	out["exponential"] = expo

	withZeros := make([]time.Duration, 3000)
	for i := range withZeros {
		if i%3 == 0 {
			withZeros[i] = 0
		} else {
			withZeros[i] = time.Duration(src.Exponential(5e6))
		}
	}
	out["with-zeros"] = withZeros

	return out
}

// TestSketchVsOracle pins the sketch against the exact sort-based oracle
// (compute's percentile) over adversarial distributions: every
// quantile must land within the documented relative-error bound, and
// min/max must be exact.
func TestSketchVsOracle(t *testing.T) {
	src := rng.New(7)
	for name, samples := range adversarialDistributions(src) {
		sk := NewSketch(DefaultSketchAlpha)
		for _, v := range samples {
			sk.Observe(v)
		}
		sorted := append([]time.Duration{}, samples...)
		sortDurations(sorted)

		if sk.Count() != len(samples) {
			t.Fatalf("%s: Count = %d, want %d", name, sk.Count(), len(samples))
		}
		if sk.Min() != sorted[0] || sk.Max() != sorted[len(sorted)-1] {
			t.Fatalf("%s: min/max = %v/%v, want exact %v/%v",
				name, sk.Min(), sk.Max(), sorted[0], sorted[len(sorted)-1])
		}
		for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0} {
			checkQuantile(t, name, sk, sorted, q)
		}
	}
}

// TestSketchMergeEquivalence asserts merge(a, b) ≡ sketch(a ∪ b) exactly:
// identical bucket contents mean identical quantiles, not merely within
// tolerance.
func TestSketchMergeEquivalence(t *testing.T) {
	src := rng.New(11)
	dists := adversarialDistributions(src)
	a, b := dists["heavy-tailed"], dists["bimodal"]

	ska := NewSketch(DefaultSketchAlpha)
	skb := NewSketch(DefaultSketchAlpha)
	union := NewSketch(DefaultSketchAlpha)
	for _, v := range a {
		ska.Observe(v)
		union.Observe(v)
	}
	for _, v := range b {
		skb.Observe(v)
		union.Observe(v)
	}
	if err := ska.Merge(skb); err != nil {
		t.Fatal(err)
	}
	if ska.Count() != union.Count() {
		t.Fatalf("merged Count = %d, union %d", ska.Count(), union.Count())
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		if got, want := ska.Quantile(q), union.Quantile(q); got != want {
			t.Fatalf("q=%v: merged %v != union %v", q, got, want)
		}
	}
	if ska.Min() != union.Min() || ska.Max() != union.Max() {
		t.Fatalf("merged min/max %v/%v != union %v/%v",
			ska.Min(), ska.Max(), union.Min(), union.Max())
	}
}

func TestSketchMergeAlphaMismatch(t *testing.T) {
	a := NewSketch(0.01)
	b := NewSketch(0.02)
	b.Observe(time.Second)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alphas must error")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil: %v", err)
	}
	if err := a.Merge(a); err == nil {
		t.Fatal("self-merge must error")
	}
}

// TestSketchMemoryIndependent pins the acceptance criterion that sketch
// memory is a function of the value range, not the sample count: 100× more
// samples from the same distribution must not grow the bucket array.
func TestSketchMemoryIndependent(t *testing.T) {
	small := NewSketch(DefaultSketchAlpha)
	big := NewSketch(DefaultSketchAlpha)
	src := rng.New(3)
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(src.Exponential(20e6))
	}
	for _, v := range samples {
		small.Observe(v)
	}
	for rep := 0; rep < 100; rep++ {
		for _, v := range samples {
			big.Observe(v)
		}
	}
	if small.MemoryBytes() != big.MemoryBytes() {
		t.Fatalf("memory grew with sample count: %d bytes at 1k, %d bytes at 100k",
			small.MemoryBytes(), big.MemoryBytes())
	}
	// And the footprint itself is small: ~log(max/min)/α buckets.
	if mb := big.MemoryBytes(); mb > 64<<10 {
		t.Fatalf("sketch footprint %d bytes, want < 64KiB", mb)
	}
}

func TestSketchEmpty(t *testing.T) {
	sk := NewSketch(0)
	if sk.Alpha() != DefaultSketchAlpha {
		t.Fatalf("Alpha = %v, want default", sk.Alpha())
	}
	if sk.Count() != 0 || sk.Quantile(1) != 0 || sk.Min() != 0 || sk.Max() != 0 {
		t.Fatal("empty sketch must be all-zero")
	}
}

// TestSketchRelativeErrorExhaustive sweeps single-value sketches across
// magnitudes and checks the midpoint estimate honors the α bound at every
// scale (the geometric bucketing must not degrade at nanosecond or hour
// scales).
func TestSketchRelativeErrorExhaustive(t *testing.T) {
	for _, alpha := range []float64{0.001, 0.01, 0.05} {
		v := time.Duration(1)
		for v < 10*time.Hour {
			sk := NewSketch(alpha)
			sk.Observe(v)
			sk.Observe(v) // interior rank so the bucket estimate is exercised
			sk.Observe(v)
			got := sk.Quantile(0.5)
			diff := time.Duration(math.Abs(float64(got - v)))
			if tol := sketchTolerance(alpha, v); diff > tol {
				t.Fatalf("alpha=%v v=%v: estimate %v diff %v > tol %v", alpha, v, got, diff, tol)
			}
			v = v*7 + 13
		}
	}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

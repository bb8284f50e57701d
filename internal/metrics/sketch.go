package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// DefaultSketchAlpha is the default relative-error bound of a Sketch: 1%.
const DefaultSketchAlpha = 0.01

// maxSketchBuckets bounds the dense bucket array. With alpha = 0.01 the
// full positive int64-nanosecond range (≈292 years) needs ~2170 buckets;
// the cap is a safety net against absurd alphas, not a tuning knob.
const maxSketchBuckets = 1 << 16

// Sketch is a fixed-memory streaming percentile estimator over durations —
// a log-bucketed histogram in the DDSketch family. Bucket i covers the
// value interval (γ^(i-1), γ^i] nanoseconds with γ = (1+α)/(1-α), so any
// value inside a bucket is within relative error α of the bucket's
// midpoint estimate 2γ^i/(γ+1).
//
// Accuracy contract: for every q, Quantile(q) is within relative error α
// of the exact nearest-rank quantile (rank = ceil(q·n), the convention
// Collector.Stats uses), deterministically — the rank-th smallest sample falls in
// some bucket, the rank walk lands in that bucket, and the estimate is
// within α of every value the bucket covers. Min and max are tracked
// exactly, so Quantile(q) at the extreme ranks (Quantile(0), Quantile(1))
// returns them exactly.
//
// Every other quantile is a bucket midpoint, one of a fixed set of values
// about 2α apart: two runs whose true quantiles differ by less than a bucket
// report the same figure to the last digit, so a quantile that reads the same
// at every seed says the seeds agree within α, not that they agree. Compare
// runs on a sketch quantile only across differences larger than that; a
// caller that needs finer keeps the samples and ranks them (Collector.Stats
// over what loadgen.Scenario.KeepSamples keeps).
//
// Memory is O(log(max/min)/α), independent of the number of samples
// observed (MemoryBytes reports it).
//
// A Sketch is safe for concurrent use.
type Sketch struct {
	mu      sync.Mutex
	gamma   float64
	lnGamma float64
	counts  []uint64 // dense, grown on demand; index = bucket
	zero    uint64   // samples ≤ 0
	n       uint64
	min     time.Duration
	max     time.Duration
}

// NewSketch returns an empty sketch with relative-error bound alpha
// (alpha ≤ 0 selects DefaultSketchAlpha; alpha must be < 1).
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("metrics: sketch alpha %v out of range (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{gamma: gamma, lnGamma: math.Log(gamma)}
}

// bucketOf returns the bucket index of a positive duration.
func (s *Sketch) bucketOf(v time.Duration) int {
	idx := int(math.Ceil(math.Log(float64(v)) / s.lnGamma))
	if idx < 0 {
		idx = 0 // v = 1ns lands at index 0; nothing smaller is positive
	}
	if idx >= maxSketchBuckets {
		idx = maxSketchBuckets - 1
	}
	return idx
}

// Observe adds one sample.
func (s *Sketch) Observe(v time.Duration) {
	s.mu.Lock()
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	if v <= 0 {
		s.zero++
		s.mu.Unlock()
		return
	}
	idx := s.bucketOf(v)
	if idx >= len(s.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[idx]++
	s.mu.Unlock()
}

// Max returns the exact maximum observed sample (0 when empty).
func (s *Sketch) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Quantile returns the q-quantile estimate (nearest-rank convention,
// rank = ceil(q·n), matching Collector.Stats). The extreme ranks return the exact
// min/max; interior ranks are within relative error α of the exact
// nearest-rank value. An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(q)
}

func (s *Sketch) quantileLocked(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	if rank == 1 {
		return s.min
	}
	if rank == s.n {
		return s.max
	}
	if rank <= s.zero {
		return 0
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			// midpoint estimate 2γ^i/(γ+1) of bucket (γ^(i-1), γ^i],
			// rounded to the nearest integer nanosecond (so the bound is
			// α relative error plus at most half a nanosecond)
			est := 2 * math.Exp(float64(i)*s.lnGamma) / (s.gamma + 1)
			return time.Duration(est + 0.5)
		}
	}
	return s.max // unreachable when counts are consistent
}

// MemoryBytes reports the sketch's bucket-array footprint — a function of
// the observed value range and alpha, not of the sample count.
func (s *Sketch) MemoryBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.counts) * 8
}

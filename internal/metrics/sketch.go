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
// Compute uses), deterministically — the rank-th smallest sample falls in
// some bucket, the rank walk lands in that bucket, and the estimate is
// within α of every value the bucket covers. Min and max are tracked
// exactly, so Quantile(q) at the extreme ranks returns them exactly.
//
// Every other quantile is a bucket midpoint, one of a fixed set of values
// about 2α apart: two runs whose true quantiles differ by less than a bucket
// report the same figure to the last digit, so a quantile that reads the same
// at every seed says the seeds agree within α, not that they agree. Compare
// runs on a sketch quantile only across differences larger than that; a
// caller that needs finer keeps the samples and ranks them (Compute, which
// loadgen.Scenario.KeepSamples feeds).
//
// Memory is O(log(max/min)/α) — independent of the number of samples
// observed (MemoryBytes reports it) — and Merge folds two sketches with
// identical α bucket-by-bucket, so merge(a, b) yields exactly the same
// quantiles as one sketch fed a's and b's samples.
//
// A Sketch is safe for concurrent use.
type Sketch struct {
	mu      sync.Mutex
	alpha   float64
	gamma   float64
	lnGamma float64
	counts  []uint64 // dense, grown on demand; index = bucket
	zero    uint64   // samples ≤ 0
	n       uint64
	sum     float64
	sumsq   float64
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
	return &Sketch{alpha: alpha, gamma: gamma, lnGamma: math.Log(gamma)}
}

// Alpha returns the sketch's relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

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
	f := float64(v)
	s.sum += f
	s.sumsq += f * f
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

// Count returns the number of observed samples.
func (s *Sketch) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.n)
}

// Min returns the exact minimum observed sample (0 when empty).
func (s *Sketch) Min() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.min
}

// Max returns the exact maximum observed sample (0 when empty).
func (s *Sketch) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Quantile returns the q-quantile estimate (nearest-rank convention,
// rank = ceil(q·n), matching Compute). The extreme ranks return the exact
// min/max; interior ranks are within relative error Alpha of the exact
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

// Stats summarizes the sketch in the same shape Compute returns: exact
// N/mean/std/min/max, sketched percentiles.
func (s *Sketch) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Stats{}
	}
	n := float64(s.n)
	mean := s.sum / n
	variance := s.sumsq/n - mean*mean
	if variance < 0 {
		variance = 0 // numerical noise
	}
	return Stats{
		N:    int(s.n),
		Mean: time.Duration(mean),
		Std:  time.Duration(math.Sqrt(variance)),
		Min:  s.min,
		Max:  s.max,
		P50:  s.quantileLocked(0.50),
		P95:  s.quantileLocked(0.95),
		P99:  s.quantileLocked(0.99),
	}
}

// Merge folds other into s bucket-by-bucket. Both sketches must share the
// same alpha: the bucket boundaries are a function of it, and adding
// counts across different boundaries would silently void the error bound.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	if s == other {
		return fmt.Errorf("metrics: cannot merge a sketch into itself")
	}
	other.mu.Lock()
	oCounts := append([]uint64(nil), other.counts...)
	oZero, oN := other.zero, other.n
	oSum, oSumsq := other.sum, other.sumsq
	oMin, oMax := other.min, other.max
	oAlpha := other.alpha
	other.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if oAlpha != s.alpha {
		return fmt.Errorf("metrics: sketch alpha mismatch: %v vs %v", s.alpha, oAlpha)
	}
	if oN == 0 {
		return nil
	}
	if s.n == 0 || oMin < s.min {
		s.min = oMin
	}
	if s.n == 0 || oMax > s.max {
		s.max = oMax
	}
	if len(oCounts) > len(s.counts) {
		grown := make([]uint64, len(oCounts))
		copy(grown, s.counts)
		s.counts = grown
	}
	for i, c := range oCounts {
		s.counts[i] += c
	}
	s.zero += oZero
	s.n += oN
	s.sum += oSum
	s.sumsq += oSumsq
	return nil
}

// MemoryBytes reports the sketch's bucket-array footprint — a function of
// the observed value range and alpha, not of the sample count.
func (s *Sketch) MemoryBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.counts) * 8
}

// Reset clears the sketch, keeping its alpha.
func (s *Sketch) Reset() {
	s.mu.Lock()
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.zero, s.n, s.sum, s.sumsq = 0, 0, 0, 0
	s.min, s.max = 0, 0
	s.mu.Unlock()
}

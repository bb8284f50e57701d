// Package rng provides deterministic pseudo-random number generation and
// the duration distributions used to model platform behaviour (launch
// overheads, network latency jitter, model load and inference times).
//
// Determinism is a first-class requirement: every stochastic component in
// the runtime derives a child Source keyed by its entity UID from a single
// experiment seed, so any run — including the full figure sweeps — is
// exactly replayable.
package rng

import (
	"hash/fnv"
	"math"
	"sync"
	"time"
)

// Source is a deterministic PRNG (splitmix64 core). It is safe for
// concurrent use.
type Source struct {
	mu    sync.Mutex
	state uint64
	// cached second normal variate from Box-Muller
	hasSpare bool
	spare    float64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Derive returns a child Source whose stream is a deterministic function of
// the parent seed and name. Deriving the same name twice yields identical
// streams; distinct names yield decorrelated streams.
func (s *Source) Derive(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	s.mu.Lock()
	base := s.state
	s.mu.Unlock()
	return New(mix(base ^ h.Sum64()))
}

// gamma is splitmix64's state increment.
const gamma = 0x9e3779b97f4a7c15

// mix is one splitmix64 output step applied to z as state.
func mix(z uint64) uint64 {
	z += gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.mu.Lock()
	z := s.state
	s.state += gamma
	s.mu.Unlock()
	return mix(z)
}

// Skip advances the stream past n draws under one hold of the lock, leaving
// it exactly where n calls of Uint64, Float64 or Intn would (splitmix64's
// state is a counter), and returns the state the first skipped draw would
// have read: New or Draw of it replays the skipped draws. Normal's cached spare is
// untouched. n <= 0 skips nothing.
func (s *Source) Skip(n int) uint64 {
	s.mu.Lock()
	from := s.state
	if n > 0 {
		s.state += uint64(n) * gamma
	}
	s.mu.Unlock()
	return from
}

// Draw returns the i-th draw (from 0) of the stream whose state is from:
// what the (i+1)-th Uint64 of New(from) returns, because splitmix64's state
// is a counter. A reader replays draws skipped with Skip with it, without a
// Source.
func Draw(from uint64, i int) uint64 {
	return mix(from + uint64(i)*gamma)
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return unit(s.Uint64())
}

// float64Locked is Float64 for a caller that holds s.mu.
func (s *Source) float64Locked() float64 {
	z := s.state
	s.state += gamma
	return unit(mix(z))
}

// unit maps 64 random bits to a uniform float in [0, 1).
func unit(z uint64) float64 {
	return float64(z>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Normal returns a normally distributed float with the given mean and
// standard deviation (Box-Muller). Each variate is drawn under one hold of
// the lock, so concurrent callers share out the serial stream's variates:
// none is drawn twice and none is lost.
func (s *Source) Normal(mean, std float64) float64 {
	s.mu.Lock()
	if s.hasSpare {
		s.hasSpare = false
		v := s.spare
		s.mu.Unlock()
		return mean + std*v
	}
	var u float64
	for u == 0 {
		u = s.float64Locked()
	}
	v := s.float64Locked()
	r := math.Sqrt(-2 * math.Log(u))
	z0 := r * math.Cos(2*math.Pi*v)
	s.hasSpare = true
	s.spare = r * math.Sin(2*math.Pi*v)
	s.mu.Unlock()
	return mean + std*z0
}

// Exponential returns an exponentially distributed float with the given
// mean (i.e. rate 1/mean).
func (s *Source) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Dist is a real-valued distribution sampled against a Source.
type Dist interface {
	Sample(src *Source) float64
	// Mean returns the distribution's expected value (used by analytic
	// sanity checks in the experiment harness).
	Mean() float64
}

// constant is a degenerate distribution always returning V.
type constant struct{ V float64 }

// Sample implements Dist.
func (c constant) Sample(*Source) float64 { return c.V }

// Mean implements Dist.
func (c constant) Mean() float64 { return c.V }

// Uniform is the uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(src *Source) float64 { return u.Lo + (u.Hi-u.Lo)*src.Float64() }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// normal is the normal distribution, optionally truncated below at Min
// (re-sampled; Min is ignored when NaN). Use truncNormal to construct.
type normal struct {
	Mu, Sigma float64
	Min       float64 // lower truncation bound; -Inf disables
}

// truncNormal returns a normal distribution truncated below at min.
func truncNormal(mu, sigma, min float64) normal {
	return normal{Mu: mu, Sigma: sigma, Min: min}
}

// Sample implements Dist. Truncation clamps after 16 rejected draws to
// guarantee termination for pathological parameters.
func (n normal) Sample(src *Source) float64 {
	for i := 0; i < 16; i++ {
		v := src.Normal(n.Mu, n.Sigma)
		if v >= n.Min {
			return v
		}
	}
	return n.Min
}

// Mean implements Dist. For truncated normals this returns the untruncated
// mean, which is accurate when Min is several sigmas below Mu (the only
// regime used here).
func (n normal) Mean() float64 { return n.Mu }

// DurationDist samples a Dist as a time.Duration, interpreting the
// underlying distribution's unit as seconds. Negative samples are clamped
// to zero (durations cannot be negative).
type DurationDist struct{ D Dist }

// Seconds wraps d as a duration distribution in units of seconds.
func Seconds(d Dist) DurationDist { return DurationDist{D: d} }

// ConstDuration returns a degenerate duration distribution.
func ConstDuration(d time.Duration) DurationDist {
	return DurationDist{D: constant{V: d.Seconds()}}
}

// NormalDuration returns a duration distribution N(mu, sigma) truncated at
// zero.
func NormalDuration(mu, sigma time.Duration) DurationDist {
	return DurationDist{D: truncNormal(mu.Seconds(), sigma.Seconds(), 0)}
}

// Sample draws one duration.
func (dd DurationDist) Sample(src *Source) time.Duration {
	if dd.D == nil {
		return 0
	}
	v := dd.D.Sample(src)
	if v <= 0 {
		return 0
	}
	return time.Duration(v * float64(time.Second))
}

// Mean returns the expected duration.
func (dd DurationDist) Mean() time.Duration {
	if dd.D == nil {
		return 0
	}
	m := dd.D.Mean()
	if m <= 0 {
		return 0
	}
	return time.Duration(m * float64(time.Second))
}

// IsZero reports whether the distribution is unset.
func (dd DurationDist) IsZero() bool { return dd.D == nil }

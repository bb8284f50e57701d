// Package loadbal picks which service instance a client request goes to.
// The paper's prototype employs "only a rudimentary load balancing"
// (round-robin); its future work calls for "dynamically rerouting requests
// to less used service instances". One seam, Picker over a LoadView,
// carries three strategies the ablations compare: blind rotation,
// power-of-two-choices, and the full-scan least-loaded baseline.
package loadbal

import (
	"fmt"
	"sync/atomic"
)

// LoadView is an index-addressed snapshot of one balancing group's
// candidates with per-candidate load gauges. Implementations must be
// immutable (membership changes swap in a fresh view) and their Load
// reads lock-free, so a Picker can run on the request hot path without
// contention.
type LoadView interface {
	Len() int
	// Load returns candidate i's load depth (queued plus in-flight) and
	// the reading's timestamp in nanoseconds on the caller's clock
	// (0 = never reported; math.MaxInt64 = read live, never stale).
	Load(i int) (depth int, at int64)
}

// Picker selects one candidate index out of a LoadView. minAt is the
// staleness horizon on the same nanosecond timebase: a report older than
// minAt carries no information about the present and load-aware pickers
// must not act on it. Pickers must be allocation-free and lock-free —
// they run once per request on the balanced hot path.
type Picker interface {
	PickIndex(v LoadView, minAt int64) int
}

// splitmix64 advances and mixes a 64-bit state word (Vigna's SplitMix64
// finalizer). One atomic add plus this mix is the whole per-pick RNG
// cost, and the sequence is reproducible for a given seed.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const splitmixGamma = 0x9E3779B97F4A7C15

// P2C is the power-of-two-choices picker: two seeded random probes, take
// the less loaded. Constant cost regardless of group size, and within a
// constant factor of the full-scan least-loaded tail under skew (the
// classic balanced-allocations result). When either probe's load report
// is older than the staleness horizon the picker falls back to blind
// rotation — acting on a stale gauge herds requests onto whichever
// replica happened to look idle an interval ago.
type P2C struct {
	state atomic.Uint64 // seeded splitmix64 walker: one Add per pick
	rr    atomic.Uint64 // stale-report fallback rotation
}

// NewP2C returns a power-of-two-choices picker with a seeded probe
// sequence.
func NewP2C(seed uint64) *P2C {
	p := &P2C{}
	p.state.Store(seed)
	return p
}

// PickIndex implements Picker: both probes come from one 64-bit draw
// (low and high halves), so the cost is one atomic add, one mix and two
// gauge reads. Identical probes are nudged apart; on a stale report the
// pick degrades to round-robin rather than trusting dead information.
func (p *P2C) PickIndex(v LoadView, minAt int64) int {
	n := v.Len()
	if n <= 1 {
		return 0
	}
	r := splitmix64(p.state.Add(splitmixGamma))
	a := int((r & 0xFFFFFFFF) % uint64(n))
	b := int((r >> 32) % uint64(n))
	if b == a {
		b = (b + 1) % n
	}
	da, ta := v.Load(a)
	db, tb := v.Load(b)
	if ta < minAt || tb < minAt {
		return int((p.rr.Add(1) - 1) % uint64(n))
	}
	if db < da {
		return b
	}
	return a
}

// RoundRobin cycles through candidates in order — the paper's rudimentary
// strategy, and the load-blind baseline of the hotspot ablation.
type RoundRobin struct {
	n atomic.Uint64
}

// NewRoundRobin returns a round-robin picker.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// PickIndex implements Picker, ignoring the load gauges entirely.
func (b *RoundRobin) PickIndex(v LoadView, _ int64) int {
	n := v.Len()
	if n <= 1 {
		return 0
	}
	return int((b.n.Add(1) - 1) % uint64(n))
}

// leastLoaded is the full-scan argmin Picker: O(group) per pick, the
// quality ceiling the ablation holds P2C against. Ties break on a
// rotating offset so equally-idle replicas share a burst.
type leastLoaded struct {
	n atomic.Uint64
}

// PickIndex implements Picker.
func (b *leastLoaded) PickIndex(v LoadView, _ int64) int {
	n := v.Len()
	if n <= 1 {
		return 0
	}
	offset := int((b.n.Add(1) - 1) % uint64(n))
	best, bestDepth := -1, 0
	for i := 0; i < n; i++ {
		j := offset + i
		if j >= n {
			j -= n
		}
		d, _ := v.Load(j)
		if best == -1 || d < bestDepth {
			best, bestDepth = j, d
		}
	}
	return best
}

// PickerByName builds a Picker from its ablation name: "p2c",
// "round-robin" or "least-loaded". The seed drives P2C's probe sequence
// and is ignored by the others.
func PickerByName(name string, seed uint64) (Picker, error) {
	switch name {
	case "", "p2c":
		return NewP2C(seed), nil
	case "round-robin":
		return NewRoundRobin(), nil
	case "least-loaded":
		return &leastLoaded{}, nil
	default:
		return nil, fmt.Errorf("loadbal: unknown picker %q (want p2c|round-robin|least-loaded)", name)
	}
}

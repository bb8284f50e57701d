// Package loadgen is the open-loop load-generation harness: deterministic
// arrival processes (Poisson, diurnal, trace-driven) drive request
// campaigns through the real core.Session / Router / Balancer seams on an
// auto-advancing virtual clock, so million-request campaigns complete in
// seconds of wall time with exactly reproducible counts.
//
// Open-loop means the arrival schedule is independent of the system's
// response: the generator draws every inter-arrival gap from a seeded rng
// stream before the request is issued, so a slow backend grows queues
// instead of silently throttling the offered load — the failure mode a
// closed-loop (request-after-reply) driver can never exhibit.
package loadgen

import (
	"math"
	"time"

	"repro/internal/rng"
)

// Arrivals yields successive inter-arrival gaps of an open-loop schedule.
// Next returns the gap to the next arrival and false when the schedule is
// exhausted. Implementations are deterministic functions of their seeded
// rng.Source: the full offered schedule is fixed before the campaign
// starts and does not depend on how the system under test responds.
type Arrivals interface {
	Next() (time.Duration, bool)
}

// poissonArrivals is a homogeneous Poisson process: i.i.d. exponential
// gaps with the configured mean rate.
type poissonArrivals struct {
	src  *rng.Source
	mean float64 // mean gap in seconds
	left int
}

// PoissonArrivals returns n arrivals at the given mean rate (events per
// second) with exponentially distributed gaps.
func PoissonArrivals(src *rng.Source, rate float64, n int) Arrivals {
	if rate <= 0 {
		panic("loadgen: Poisson rate must be positive")
	}
	return &poissonArrivals{src: src, mean: 1 / rate, left: n}
}

func (p *poissonArrivals) Next() (time.Duration, bool) {
	if p.left <= 0 {
		return 0, false
	}
	p.left--
	return time.Duration(p.src.Exponential(p.mean) * float64(time.Second)), true
}

// diurnalArrivals is a non-homogeneous Poisson process with a sinusoidal
// rate — the classic diurnal wave — generated by thinning: candidate
// events are drawn at the peak rate λmax and each is accepted with
// probability rate(t)/λmax. Rejected candidates advance the process clock
// but produce no arrival, so the offered schedule stays a pure function
// of the rng stream.
type diurnalArrivals struct {
	src    *rng.Source
	base   float64 // mean rate, events/s
	amp    float64 // wave amplitude as a fraction of base, in [0, 1)
	period float64 // wave period in seconds
	t      float64 // process time in seconds since the first candidate
	left   int
}

// newDiurnalArrivals returns n arrivals whose instantaneous rate follows
// base·(1 + amp·sin(2πt/period)). amp must be in [0, 1) so the rate never
// reaches zero (thinning would stall).
func newDiurnalArrivals(src *rng.Source, base, amp float64, period time.Duration, n int) Arrivals {
	if base <= 0 || amp < 0 || amp >= 1 || period <= 0 {
		panic("loadgen: diurnal wave needs base > 0, 0 <= amp < 1, period > 0")
	}
	return &diurnalArrivals{src: src, base: base, amp: amp, period: period.Seconds(), left: n}
}

func (d *diurnalArrivals) Next() (time.Duration, bool) {
	if d.left <= 0 {
		return 0, false
	}
	d.left--
	lambdaMax := d.base * (1 + d.amp)
	start := d.t
	for {
		d.t += d.src.Exponential(1 / lambdaMax)
		rate := d.base * (1 + d.amp*math.Sin(2*math.Pi*d.t/d.period))
		if d.src.Float64()*lambdaMax < rate {
			return time.Duration((d.t - start) * float64(time.Second)), true
		}
	}
}

// traceArrivals replays an explicit gap sequence.
type traceArrivals struct {
	gaps []time.Duration
	i    int
}

// newTraceArrivals replays the given inter-arrival gaps verbatim (one
// arrival per gap), for trace-driven campaigns.
func newTraceArrivals(gaps []time.Duration) Arrivals {
	return &traceArrivals{gaps: gaps}
}

func (t *traceArrivals) Next() (time.Duration, bool) {
	if t.i >= len(t.gaps) {
		return 0, false
	}
	g := t.gaps[t.i]
	t.i++
	return g, true
}

package simtime

import (
	"fmt"
	"time"
)

// Scaled is a Clock on which time flows Scale times faster than the wall
// clock: sleeping for one simulated second takes 1/Scale real seconds. A
// Scale of 1 behaves like Real with a configurable origin.
//
// Scaled preserves real concurrency (goroutines genuinely run in parallel
// and genuinely block) while compressing the long service bootstrap and
// inference durations the paper measures into milliseconds.
type Scaled struct {
	scale     float64
	origin    time.Time // simulated time at construction
	realStart time.Time // wall time at construction
}

// NewScaled returns a clock whose time advances factor times faster than
// wall time, starting from origin. factor must be positive.
func NewScaled(factor float64, origin time.Time) *Scaled {
	if factor <= 0 {
		panic(fmt.Sprintf("simtime: non-positive scale factor %v", factor))
	}
	return &Scaled{scale: factor, origin: origin, realStart: time.Now()}
}

// Now implements Clock.
func (s *Scaled) Now() time.Time {
	real := time.Since(s.realStart)
	return s.origin.Add(time.Duration(float64(real) * s.scale))
}

// compress converts a simulated duration to the wall duration to wait.
func (s *Scaled) compress(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	w := time.Duration(float64(d) / s.scale)
	if w <= 0 {
		w = 1 // never busy-spin: round sub-nanosecond waits up
	}
	return w
}

// Sleep implements Clock.
func (s *Scaled) Sleep(d time.Duration) { time.Sleep(s.compress(d)) }

// NewTimer implements Clock.
func (s *Scaled) NewTimer(d time.Duration) Timer {
	ch := make(chan time.Time, 1)
	t := time.AfterFunc(s.compress(d), func() { ch <- s.Now() })
	return &scaledTimer{t: t, ch: ch}
}

type scaledTimer struct {
	t  *time.Timer
	ch chan time.Time
}

func (t *scaledTimer) C() <-chan time.Time { return t.ch }
func (t *scaledTimer) Stop() bool          { return t.t.Stop() }

// NewTicker implements Clock.
func (s *Scaled) NewTicker(d time.Duration) Ticker {
	inner := time.NewTicker(s.compress(d))
	ch := make(chan time.Time, 1)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-inner.C:
				select {
				case ch <- s.Now():
				default: // drop ticks nobody consumes, like time.Ticker
				}
			case <-done:
				return
			}
		}
	}()
	return &scaledTicker{inner: inner, ch: ch, done: done}
}

type scaledTicker struct {
	inner *time.Ticker
	ch    chan time.Time
	done  chan struct{}
}

func (t *scaledTicker) C() <-chan time.Time { return t.ch }

func (t *scaledTicker) Stop() {
	t.inner.Stop()
	select {
	case <-t.done:
	default:
		close(t.done)
	}
}

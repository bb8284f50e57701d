// Package simtime provides the time substrate for the runtime and its
// experiments. Every component in this repository receives a Clock instead
// of calling the time package directly. A Clock has four methods: Now,
// Sleep, NewTimer and NewTicker; SleepCtx is Sleep cut short by a context.
// Three implementations give three execution modes:
//
//   - Real: wall-clock time, used when driving actual remote services.
//   - Scaled: wall-clock time compressed by a constant factor, used by
//     modelserve, the xproc agent and the bench module's rpbench.
//   - Virtual: a deterministic discrete-event clock that advances itself
//     once every goroutine registered with it is parked. The experiments,
//     the load harness, lucid-run's pipelines, core's default session clock
//     and the unit tests that need simulated time run on it.
//
// On a Virtual one rule keeps every stamp exact: a goroutine that waits must
// be registered with the clock (Virtual.Go, AddRunner), and it waits through
// the clock, in Sleep, SleepCtx, Settle, a Latch's Wait or a Handoff's Recv.
// The clock then counts it as parked, and whoever wakes it hands it its wake
// token first, so time cannot move between the wake and the waiter running.
// Every one-shot wait of the runtime is a Latch; every wait for a value handed
// over by another goroutine is a Handoff, whose value is sent now or, on a
// Virtual, at a later instant (SendAfter): a queued reply that rides its link
// hop wakes its caller once. A goroutine that idles until another
// one names the instant it is needed (the load campaign's crew) parks on an
// Alarm, whose fire hands it a token. One wait keeps its own accounting:
// the scheduler's kick. Its loop wakes once per kick, again and again, and
// each kick carries the runner the pass runs on.
package simtime

import (
	"context"
	"time"
)

// Clock abstracts the passage of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of clock time.
	Sleep(d time.Duration)
	// NewTimer returns a one-shot timer firing after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a repeating ticker with period d.
	NewTicker(d time.Duration) Ticker
}

// Timer is a one-shot timer bound to a Clock.
type Timer interface {
	// C returns the channel on which the expiry time is delivered.
	C() <-chan time.Time
	// Stop prevents the timer from firing. It reports whether the call
	// stopped the timer before it fired.
	Stop() bool
}

// Ticker delivers ticks at a fixed period until stopped.
type Ticker interface {
	// C returns the channel on which ticks are delivered.
	C() <-chan time.Time
	// Stop turns off the ticker.
	Stop()
}

// SleepCtx sleeps for d of clock time or until ctx is done, whichever comes
// first. It returns ctx.Err if the context expired. On a Virtual it is
// Sleep, which a cancel cuts short: the sleep pulls time forward.
func SleepCtx(ctx context.Context, c Clock, d time.Duration) error {
	if err := ctx.Err(); d <= 0 || err != nil {
		return err
	}
	if v, ok := c.(*Virtual); ok {
		return v.sleep(ctx, d)
	}
	t := c.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Real is the wall-clock implementation of Clock.
type Real struct{}

// NewReal returns a Clock backed by the system wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

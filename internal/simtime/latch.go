package simtime

import (
	"context"
	"sync"
)

// Latch is an event that happens once: a task's end, a service's readiness,
// a staging gate opening. On a Virtual its waiters park on the clock's books,
// and Fire hands each of them its wake token before the wake, so a waiter
// resumes at the instant the latch fired.
//
// A Latch is guarded by its owner's mutex, the way a sync.Cond is guarded by
// its Locker: Fire, Fired and Done are called with that mutex held, and Wait
// unlocks it while it blocks. The zero Latch has not fired.
type Latch struct {
	// ch is made by the first Done or Wait before the fire, and Fire closes
	// it; a latch nobody asked before the fire hands out the one shared
	// closed channel.
	ch  chan struct{}
	run *Virtual
	// parked counts the waiters parked on run that Fire owes a wake token.
	parked int32
	fired  bool
}

// closed is the Done of every latch that has fired.
var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Fired reports whether l has fired.
func (l *Latch) Fired() bool { return l.fired }

// Done returns a channel that is closed when l fires.
func (l *Latch) Done() <-chan struct{} {
	switch {
	case l.ch != nil:
	case l.fired:
		return closed
	default:
		l.ch = make(chan struct{})
	}
	return l.ch
}

// Fire fires l: every parked waiter gets its wake token, then they all wake.
// Firing a fired latch does nothing.
func (l *Latch) Fire() {
	if l.fired {
		return
	}
	l.fired = true
	for ; l.parked > 0; l.parked-- {
		l.run.AddRunner()
	}
	if l.ch != nil {
		close(l.ch)
	}
}

// Wait blocks until l fires or ctx ends. mu guards l: the caller holds it,
// Wait unlocks it while blocked and locks it again before returning. Wait
// returns nil once l has fired, whatever ctx says, and ctx's error
// otherwise. On a Virtual c the caller must be a registered goroutine: it is
// parked on c's books while it waits, and a ctx that ends first hands its
// token back.
func (l *Latch) Wait(ctx context.Context, c Clock, mu sync.Locker) error {
	if l.fired {
		return nil
	}
	if err := ctx.Err(); err != nil {
		// Never park on an ended ctx: between the park and the unpark the
		// clock would count a running caller as parked and could advance.
		return err
	}
	done := l.Done()
	l.run = RunnersOf(c)
	l.parked++
	l.run.park(parkLatch)
	mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
	}
	mu.Lock()
	if l.fired {
		return nil
	}
	l.parked--
	l.run.AddRunner()
	return ctx.Err()
}

package simtime

import "time"

// Alarm wakes one parked follower at a deadline that a running goroutine sets
// on its behalf: the Leader/Followers pattern on the virtual clock. The
// follower parks in Wait off the clock's books, holding no runner token. Set
// puts the alarm on the clock, where it counts as a pending sleep, so time
// can advance to it exactly as it would to a Sleep's deadline; when it fires,
// it hands the follower a runner token before the wake, and the clock does
// not move again until the follower parks.
//
// A leader that wants the deadline back takes it with Cancel and the ticket
// Set returned: the ticket names that one arming, so a leader that was
// overtaken and cancels late cannot take a later arming of the same alarm.
type Alarm struct {
	v *Virtual
	s sleeper
}

// NewAlarm returns an alarm on v, not set.
func (v *Virtual) NewAlarm() *Alarm {
	return &Alarm{v: v, s: sleeper{ch: make(chan time.Time, 1), index: -1, kind: fireAlarm}}
}

// Set arms a to fire d from now and returns the ticket of this arming. The
// caller must be a registered, runnable goroutine (or hold the clock with
// AddRunner), and a must be neither set nor fired and still unreceived: its
// follower is parked in Wait or about to be.
func (a *Alarm) Set(d time.Duration) (ticket uint64) {
	v := a.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if a.s.index >= 0 {
		panic("simtime: Alarm set twice")
	}
	return v.setLocked(&a.s, d)
}

// Cancel takes the arming named by ticket off the clock and reports whether
// it did. False means the alarm fired first, or was cancelled, or has been
// set again since: ticket no longer names a pending arming.
func (a *Alarm) Cancel(ticket uint64) bool {
	v := a.v
	v.mu.Lock()
	defer v.mu.Unlock()
	s := &a.s
	if s.index < 0 || s.seq != ticket {
		return false
	}
	v.sleepers.remove(s.index)
	v.sleeping--
	return true
}

// Wait parks the follower, which must not hold a runner token, until a fires
// or is closed. It returns true when a fired: the caller then holds the
// runner token the fire handed it and must give it back with DoneRunner. It
// returns false when a was closed.
func (a *Alarm) Wait() bool {
	_, fired := <-a.s.ch
	return fired
}

// Close ends the follower's Wait with false. a must not be set.
func (a *Alarm) Close() {
	a.v.mu.Lock()
	defer a.v.mu.Unlock()
	if a.s.index >= 0 {
		panic("simtime: Alarm closed while set")
	}
	close(a.s.ch)
}

package simtime

import (
	"context"
	"time"
)

// Handoff passes one value to one waiter, again and again: a request's reply
// to its caller, a job to a parked worker. On a Virtual the waiter parks on
// the clock's books, and Send hands it its wake token before the value, so
// the waiter resumes at the instant of the send.
//
// Each exchange starts with Arm; then one Send (or SendAfter) and one Recv
// meet, in either order. A Recv that gives up on its context first hands its
// token back, and the Send that comes after it returns false: the value was
// not delivered, and the sender still owns whatever it refers to. The zero
// Handoff must be armed before use.
type Handoff[T any] struct {
	// ch is the exchange's one slot. Whoever fills it first wins: Send with
	// the value, or a Recv that gives up with the zero T, which the refused
	// Send takes out again.
	ch  chan T
	run *Virtual
	// timed is SendAfter's pending delivery on run's heap, and val the
	// value it carries until it fires.
	timed sleeper
	val   T
}

// Arm readies h for one exchange on clock c. The previous exchange must be
// over: its value received, or its Recv given up and its Send returned.
func (h *Handoff[T]) Arm(c Clock) {
	if h.ch == nil {
		h.ch = make(chan T, 1)
	}
	h.run = RunnersOf(c)
}

// Send delivers v to the waiter, parked or still to come, and reports
// whether it did: false means the waiter gave up first. It never blocks.
func (h *Handoff[T]) Send(v T) bool {
	h.run.AddRunner() // the waiter's wake token, before the wake
	select {
	case h.ch <- v:
		return true
	default: // a Recv that gave up holds the slot
		<-h.ch
		h.run.DoneRunner() // nobody to wake: take the token back
		return false
	}
}

// SendAfter delivers v to the waiter d from now on the Virtual clock h is
// armed on: the delivery is a pending sleep on the clock, as an Alarm's Set
// is, so time advances to it, and its fire hands the waiter its wake token
// and then v. A parked waiter thus wakes once, at the instant of the send
// plus d, where a wake at the send followed by a Sleep of d would park it
// twice. Equal deadlines deliver in the order of their sends. A d ≤ 0 is
// Send. It never blocks and allocates nothing.
//
// It reports false, and delivers nothing, when the waiter has given up
// already, as Send does. A waiter that gives up while the delivery is
// pending goes unnoticed by the sender: the fire finds the waiter's zero
// T in the slot, takes it out, issues no token and drops v, without
// blocking under the clock's lock. The sender cannot learn of it, so a v
// that needs an owner goes to a waiter whose ctx can never end. SendAfter
// panics on an h armed on any other clock.
func (h *Handoff[T]) SendAfter(v T, d time.Duration) bool {
	if d <= 0 {
		return h.Send(v)
	}
	run := h.run
	if run == nil {
		panic("simtime: Handoff.SendAfter off a Virtual clock")
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	select {
	case <-h.ch: // a Recv that gave up holds the slot
		return false
	default:
	}
	h.val = v
	h.timed.kind, h.timed.to = fireDelivery, h
	run.setLocked(&h.timed, d)
	return true
}

// deliverLocked implements deliverer: the fire of SendAfter's delivery.
func (h *Handoff[T]) deliverLocked() bool {
	var zero T
	v := h.val
	h.val = zero
	select {
	case h.ch <- v:
		return true
	default: // the waiter gave up: its zero T holds the slot
		<-h.ch
		return false
	}
}

// Recv waits for the value of the exchange, or until ctx ends. On a Virtual
// the caller must be registered: it is parked on the clock's books while it
// waits. It returns ctx's error only when it gave up before the Send, and
// then it has its token back. When ctx can never end, Recv is a plain
// receive.
func (h *Handoff[T]) Recv(ctx context.Context) (v T, err error) {
	if ctx.Done() != nil {
		err = h.recvOrGiveUp(ctx, &v)
		return v, err
	}
	h.run.park(parkRecv)
	v = <-h.ch
	return v, nil
}

// recvOrGiveUp is Recv under a ctx that can end, receiving into v. It is a
// function of its own so that the plain receive keeps a small stack frame:
// every request's caller waits in it.
func (h *Handoff[T]) recvOrGiveUp(ctx context.Context, v *T) error {
	// Read before giving up: once the slot is ours the sender may recycle h
	// and Arm it again.
	run := h.run
	if ctx.Err() != nil {
		// Never park on an ended ctx: between the park and the unpark the
		// clock would count a running caller as parked and could advance.
		select {
		case h.ch <- *v: // *v is still the zero T
			return ctx.Err()
		default: // the Send won, and its token is already ours
		}
	}
	run.park(parkRecv)
	select {
	case *v = <-h.ch:
		return nil
	case <-ctx.Done():
	}
	select {
	case h.ch <- *v: // *v is still the zero T
		run.AddRunner()
		return ctx.Err()
	default: // the Send won, and its token is already ours
		*v = <-h.ch
		return nil
	}
}

package simtime

import "context"

// Handoff passes one value to one waiter, again and again: a request's reply
// to its caller, a job to a parked worker. On a Virtual the waiter parks on
// the clock's books, and Send hands it its wake token before the value, so
// the waiter resumes at the instant of the send.
//
// Each exchange starts with Arm; then one Send and one Recv meet, in either
// order. A Recv that gives up on its context first hands its token back, and
// the Send that comes after it returns false: the value was not delivered,
// and the sender still owns whatever it refers to. The zero Handoff must be
// armed before use.
type Handoff[T any] struct {
	// ch is the exchange's one slot. Whoever fills it first wins: Send with
	// the value, or a Recv that gives up with the zero T, which the refused
	// Send takes out again.
	ch  chan T
	run *Virtual
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
	h.run.DoneRunner()
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
	run.DoneRunner()
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

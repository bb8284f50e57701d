package simtime

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestHandoffSendBeforeRecv: a value sent before its waiter arrives is
// there when it does, the token it carried is taken by the Recv, and an
// exchange on a re-armed hand-off with a ctx that can never end allocates
// nothing.
func TestHandoffSendBeforeRecv(t *testing.T) {
	v := held(t)
	var h Handoff[int]
	h.Arm(v)
	if !h.Send(7) {
		t.Fatal("Send to an armed hand-off refused")
	}
	if got, err := h.Recv(context.Background()); got != 7 || err != nil {
		t.Fatalf("Recv = %d, %v; want 7, nil", got, err)
	}
	if got := running(v); got != 1 {
		t.Fatalf("%d running after the exchange, want 1", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		h.Arm(v)
		h.Send(1)
		h.Recv(context.Background())
	}); allocs != 0 {
		t.Errorf("an exchange allocates %.1f objects, want none", allocs)
	}
}

// TestHandoffTokenBeforeValue: Send issues the waiter's wake token before
// the value. While the test holds the clock's lock the token cannot be
// issued, so the parked waiter must not get the value either.
func TestHandoffTokenBeforeValue(t *testing.T) {
	v := held(t)
	var h Handoff[int]
	h.Arm(v)
	got := make(chan int, 1)
	v.Go(func() {
		n, _ := h.Recv(context.Background())
		got <- n
	})
	v.Settle() // the waiter is parked
	v.mu.Lock()
	go h.Send(7)
	select {
	case <-got:
		v.mu.Unlock()
		t.Fatal("the waiter got its value before its wake token")
	case <-time.After(20 * time.Millisecond):
	}
	v.mu.Unlock()
	if n := <-got; n != 7 {
		t.Fatalf("Recv = %d, want 7", n)
	}
	v.Settle()
	if n := running(v); n != 1 {
		t.Fatalf("%d running after the exchange, want 1", n)
	}
}

// TestHandoffAbandonTakesItsTokenBack: a Recv whose ctx ends returns with
// its own token, and the Send that comes after it refuses the value.
func TestHandoffAbandonTakesItsTokenBack(t *testing.T) {
	v := held(t)
	var h Handoff[int]
	h.Arm(v)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	v.Go(func() {
		_, err := h.Recv(ctx)
		errc <- err
	})
	v.Settle()
	if got := running(v); got != 1 {
		t.Fatalf("%d running with the waiter parked, want 1", got)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Recv = %v, want context.Canceled", err)
	}
	v.Settle()
	if h.Send(1) {
		t.Fatal("Send after the abandon delivered")
	}
	if got := running(v); got != 1 {
		t.Fatalf("%d running after the abandon, want 1", got)
	}
	h.Arm(v) // a Recv on an ended ctx gives up without parking
	if _, err := h.Recv(ctx); !errors.Is(err, context.Canceled) || running(v) != 1 {
		t.Fatalf("Recv on an ended ctx = %v with %d running, want context.Canceled with 1", err, running(v))
	}
}

// TestHandoffSendVsAbandonSingleWinnerRace: a Send and a ctx end race for one
// parked waiter. Exactly one wins: the value is delivered and Send reports
// it, or the waiter gives up and Send refuses. Either way the waiter's
// token is issued once and taken once.
func TestHandoffSendVsAbandonSingleWinnerRace(t *testing.T) {
	var delivered, abandoned int
	for round := 0; round < 500; round++ {
		v := NewVirtualAuto(origin)
		v.AddRunner()
		var h Handoff[int]
		h.Arm(v)
		ctx, cancel := context.WithCancel(context.Background())
		type result struct {
			n   int
			err error
		}
		res := make(chan result, 1)
		v.Go(func() {
			n, err := h.Recv(ctx)
			res <- result{n, err}
		})
		v.Settle()
		// Each side goes first on every other round, so both win often.
		sentc := make(chan bool, 1)
		if round%2 == 0 {
			go func() { sentc <- h.Send(round) }()
			cancel()
		} else {
			go cancel()
			sentc <- h.Send(round)
		}
		sent, r := <-sentc, <-res
		switch {
		case sent && r.err == nil && r.n == round:
			delivered++
		case !sent && errors.Is(r.err, context.Canceled):
			abandoned++
		default:
			t.Fatalf("round %d: Send = %v, Recv = %d, %v", round, sent, r.n, r.err)
		}
		v.Settle()
		if got := running(v); got != 1 {
			t.Fatalf("round %d: %d running after the race, want 1", round, got)
		}
		v.DoneRunner()
		cancel()
	}
	t.Logf("%d delivered, %d abandoned", delivered, abandoned)
}

package simtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// parksOf returns v's park counts and timed deliveries as one array, in the
// order Parks returns them.
func parksOf(v *Virtual) [5]uint64 {
	sleep, recv, alarm, latch, delivered := v.Parks()
	return [5]uint64{sleep, recv, alarm, latch, delivered}
}

// TestHandoffSendAfterWakesOnceAtDeadline: a waiter parked on a timed send
// wakes once, at the send's instant plus d, with the value: one Recv park
// and one delivery, no Sleep park. On one goroutine an exchange allocates
// nothing, and the delivery alone moves the clock to its deadline.
func TestHandoffSendAfterWakesOnceAtDeadline(t *testing.T) {
	v := held(t)
	var h Handoff[int]
	h.Arm(v)
	woke := make(chan time.Time, 1)
	v.Go(func() {
		if n, err := h.Recv(context.Background()); n != 7 || err != nil {
			t.Errorf("Recv = %d, %v; want 7, nil", n, err)
		}
		woke <- v.Now()
	})
	v.Sleep(time.Second) // the waiter parks; the send is at origin+1s
	before := parksOf(v)
	if !h.SendAfter(7, 3*time.Second) {
		t.Fatal("SendAfter to a parked waiter refused")
	}
	v.Sleep(10 * time.Second)
	if at := <-woke; !at.Equal(origin.Add(4 * time.Second)) {
		t.Fatalf("the waiter woke at %v, want origin+4s", at.Sub(origin))
	}
	after := parksOf(v)
	// The test's own Sleep parks once; the waiter parked before the count.
	if want := [5]uint64{before[0] + 1, before[1], before[2], before[3], before[4] + 1}; after != want {
		t.Fatalf("parks (sleep, recv, alarm, latch, delivered) went %v → %v, want %v", before, after, want)
	}
	if got := running(v); got != 1 {
		t.Fatalf("%d running after the exchange, want 1", got)
	}

	// The delivery is the only pending sleep: the clock advances to it.
	h.Arm(v)
	start := v.Now()
	h.SendAfter(1, 2*time.Second)
	if n, _ := h.Recv(context.Background()); n != 1 || !v.Now().Equal(start.Add(2*time.Second)) {
		t.Fatalf("Recv = %d at %v after the send, want 1 at 2s", n, v.Now().Sub(start))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		h.Arm(v)
		h.SendAfter(1, time.Second)
		h.Recv(context.Background())
	}); allocs != 0 {
		t.Errorf("a timed exchange allocates %.1f objects, want none", allocs)
	}
}

// TestHandoffSendAfterEqualDeadlinesInSendOrder: two deliveries due at one
// instant fire in the order of their sends. The first waiter wakes while
// the second delivery is still pending: the clock fires it only once the
// first waiter has parked again.
func TestHandoffSendAfterEqualDeadlinesInSendOrder(t *testing.T) {
	for _, firstA := range []bool{true, false} {
		v := held(t)
		var a, b Handoff[string]
		a.Arm(v)
		b.Arm(v)
		var mu sync.Mutex
		var order []string
		wait := func(h, other *Handoff[string]) {
			name, _ := h.Recv(context.Background())
			mu.Lock()
			defer mu.Unlock()
			if len(order) == 0 && len(other.ch) != 0 {
				t.Errorf("%s woke with the other delivery already fired", name)
			}
			order = append(order, name)
		}
		v.Go(func() { wait(&a, &b) })
		v.Go(func() { wait(&b, &a) })
		v.Settle()
		if firstA {
			a.SendAfter("a", time.Second)
			b.SendAfter("b", time.Second)
		} else {
			b.SendAfter("b", time.Second)
			a.SendAfter("a", time.Second)
		}
		v.Sleep(2 * time.Second)
		v.Settle()
		want := []string{"a", "b"}
		if !firstA {
			want = []string{"b", "a"}
		}
		if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
			t.Fatalf("sent %v: delivered %v", want, order)
		}
	}
}

// TestHandoffSendAfterNonPositiveIsSend: a timed send with d ≤ 0 is a Send:
// the waiter wakes at the instant of the send, nothing waits on the clock,
// and a waiter that gave up refuses it.
func TestHandoffSendAfterNonPositiveIsSend(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		v := held(t)
		var h Handoff[int]
		h.Arm(v)
		woke := make(chan time.Time, 1)
		v.Go(func() {
			h.Recv(context.Background())
			woke <- v.Now()
		})
		v.Settle()
		if !h.SendAfter(1, d) || pending(v) != 0 {
			t.Fatalf("d=%v: SendAfter refused or left %d pending", d, pending(v))
		}
		if at := <-woke; !at.Equal(origin) {
			t.Fatalf("d=%v: the waiter woke at %v, want origin", d, at.Sub(origin))
		}
		if _, _, _, _, delivered := v.Parks(); delivered != 0 {
			t.Fatalf("d=%v: %d timed deliveries, want 0", d, delivered)
		}

		h.Arm(v)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		h.Recv(ctx) // gives up at once
		if h.SendAfter(2, d) || running(v) != 1 {
			t.Fatalf("d=%v: SendAfter after the give-up delivered, or %d running", d, running(v))
		}
	}
}

// TestHandoffSendAfterHoldsTheClock: the clock does not move past a pending
// delivery. A Sleep due later wakes after the delivered waiter, which reads
// the delivery's instant; a Sleep due first wakes first.
func TestHandoffSendAfterHoldsTheClock(t *testing.T) {
	v := held(t)
	var h Handoff[int]
	h.Arm(v)
	var mu sync.Mutex
	var trace []string
	note := func(who string) {
		mu.Lock()
		defer mu.Unlock()
		trace = append(trace, fmt.Sprintf("%s@%v", who, v.Now().Sub(origin)))
	}
	v.Go(func() {
		h.Recv(context.Background())
		note("waiter")
	})
	v.Go(func() {
		v.Sleep(time.Second)
		note("early")
	})
	v.Settle()
	h.SendAfter(1, 2*time.Second)
	v.Sleep(5 * time.Second)
	note("late")
	want := []string{"early@1s", "waiter@2s", "late@5s"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// TestHandoffSendAfterAbandonedWaiter: a waiter that gave up before the
// timed send makes it refuse, as Send does. One that gives up while the
// delivery is pending has its token back; the fire then finds its zero in
// the slot, takes it out, issues no token and drops the value, so the clock
// is not blocked under its lock, no token leaks and the hand-off can be
// armed again.
func TestHandoffSendAfterAbandonedWaiter(t *testing.T) {
	v := held(t)
	var h Handoff[int]
	h.Arm(v)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.Recv(ctx)
	if h.SendAfter(1, time.Second) || pending(v) != 0 || running(v) != 1 {
		t.Fatalf("SendAfter after the give-up: %d pending, %d running, want a refusal with 0 and 1", pending(v), running(v))
	}

	h.Arm(v)
	ctx, cancel = context.WithCancel(context.Background())
	errc := make(chan error, 1)
	v.Go(func() {
		_, err := h.Recv(ctx)
		errc <- err
	})
	v.Settle()
	if !h.SendAfter(2, time.Second) {
		t.Fatal("SendAfter to a parked waiter refused")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv = %v, want context.Canceled", err)
	}
	v.Sleep(2 * time.Second) // the delivery fires on the way, into the give-up
	v.Settle()
	if _, _, _, _, delivered := v.Parks(); delivered != 1 || running(v) != 1 || len(h.ch) != 0 || pending(v) != 0 {
		t.Fatalf("after the fire: %d delivered, %d running, %d in the slot, %d pending; want 1, 1, 0, 0",
			delivered, running(v), len(h.ch), pending(v))
	}
	h.Arm(v)
	h.SendAfter(3, time.Second)
	if n, err := h.Recv(context.Background()); n != 3 || err != nil {
		t.Fatalf("the re-armed hand-off delivered %d, %v; want 3, nil", n, err)
	}
}

// TestHandoffSendAfterVsAbandonRace: a ctx end races the fire of a pending
// delivery. Either the value is delivered or the waiter gives up; either
// way the slot ends empty and the waiter's token is issued once and taken
// once.
func TestHandoffSendAfterVsAbandonRace(t *testing.T) {
	var delivered, abandoned int
	for round := 0; round < 300; round++ {
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
		h.SendAfter(round+1, time.Second)
		// The cancel gets a head start of host time on every other round,
		// so both sides win often.
		if round%2 == 0 {
			cancel()
			time.Sleep(time.Duration(round%5) * 20 * time.Microsecond)
		} else {
			go cancel()
		}
		v.Sleep(2 * time.Second)
		switch r := <-res; {
		case r.err == nil && r.n == round+1:
			delivered++
		case errors.Is(r.err, context.Canceled):
			abandoned++
		default:
			t.Fatalf("round %d: Recv = %d, %v", round, r.n, r.err)
		}
		v.Settle()
		if got := running(v); got != 1 || len(h.ch) != 0 {
			t.Fatalf("round %d: %d running, %d in the slot after the race, want 1 and 0", round, got, len(h.ch))
		}
		v.DoneRunner()
	}
	t.Logf("%d delivered, %d abandoned", delivered, abandoned)
}

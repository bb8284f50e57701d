package simtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// running is v's count of runnable registered goroutines.
func running(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.running
}

// TestLatchFiredBeforeWaitRace: a wait on a fired latch returns at once, parks
// nobody and makes no channel: Done hands out the one shared closed channel.
func TestLatchFiredBeforeWaitRace(t *testing.T) {
	v := held(t)
	var mu sync.Mutex
	l := new(Latch)
	mu.Lock()
	l.Fire()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := l.Wait(context.Background(), v, &mu); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Wait on a fired latch allocates %.1f objects, want none", allocs)
	}
	if l.ch != nil || l.Done() != closed || l.parked != 0 || running(v) != 1 {
		t.Errorf("fired latch: own channel %v, Done shared %v, %d parked, %d running; want none, true, 0, 1",
			l.ch != nil, l.Done() == closed, l.parked, running(v))
	}
	mu.Unlock()
}

// TestLatchWakesEveryParkedWaiterRace: n registered waiters park on the latch;
// Fire gives exactly n wake tokens, and each waiter resumes at the instant
// of the fire.
func TestLatchWakesEveryParkedWaiterRace(t *testing.T) {
	const n = 8
	v := held(t)
	var mu sync.Mutex
	var l Latch
	woke := make(chan time.Time, n)
	for i := 0; i < n; i++ {
		v.Go(func() {
			mu.Lock()
			err := l.Wait(context.Background(), v, &mu)
			mu.Unlock()
			if err != nil {
				t.Error(err)
			}
			woke <- v.Now()
		})
	}
	v.Settle()
	mu.Lock()
	parked := l.parked
	mu.Unlock()
	if parked != n || running(v) != 1 {
		t.Fatalf("%d parked, %d running; want %d, 1", parked, running(v), n)
	}
	v.Sleep(3 * time.Second) // every waiter parked: time moves
	mu.Lock()
	l.Fire()
	mu.Unlock()
	v.Settle() // back to 1 only if Fire gave n tokens and n waiters ended
	if got := running(v); got != 1 {
		t.Fatalf("%d running after the waiters ended, want 1", got)
	}
	for i := 0; i < n; i++ {
		if at := <-woke; !at.Equal(origin.Add(3 * time.Second)) {
			t.Fatalf("a waiter resumed at %v, want origin+3s", at.Sub(origin))
		}
	}
}

// TestLatchAbandonTakesItsTokenBackRace: a waiter whose ctx ends returns its own
// token, and a later Fire owes it none.
func TestLatchAbandonTakesItsTokenBackRace(t *testing.T) {
	v := held(t)
	var mu sync.Mutex
	var l Latch
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	v.Go(func() {
		mu.Lock()
		defer mu.Unlock()
		errc <- l.Wait(ctx, v, &mu)
	})
	v.Settle()
	if got := running(v); got != 1 {
		t.Fatalf("%d running with the waiter parked, want 1", got)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Wait = %v, want context.Canceled", err)
	}
	v.Settle()
	mu.Lock()
	parked := l.parked
	l.Fire()
	mu.Unlock()
	if got := running(v); parked != 0 || got != 1 {
		t.Fatalf("after the abandon %d parked, and %d running after Fire; want 0, 1", parked, got)
	}
}

// TestLatchFireRacesAbandonRace: a Fire and a ctx end race for one parked
// waiter. Whichever wins, the waiter's token is issued once and taken once:
// the count settles back to the test goroutine alone.
func TestLatchFireRacesAbandonRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		v := NewVirtualAuto(origin)
		v.AddRunner()
		var mu sync.Mutex
		var l Latch
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		v.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			errc <- l.Wait(ctx, v, &mu)
		})
		v.Settle()
		go cancel()
		mu.Lock()
		l.Fire()
		mu.Unlock()
		if err := <-errc; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Wait = %v", round, err)
		}
		v.Settle()
		if got := running(v); got != 1 {
			t.Fatalf("round %d: %d running after the race, want 1", round, got)
		}
		v.DoneRunner()
		cancel()
	}
}

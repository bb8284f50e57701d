package scheduler

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRouterSingleWinnerRouteCancelDrainRace: a grant, a cancellation and the
// shutdown drain race for every waiter of the continuation table, and each
// waiter goes to exactly one of them.
func TestRouterSingleWinnerRouteCancelDrainRace(t *testing.T) {
	const n = 256
	r := NewRouter()
	var routed, cancelled, drained [n]atomic.Int32
	index := make(map[string]int, n)
	for i := 0; i < n; i++ {
		i, uid := i, fmt.Sprintf("task.%04d", i)
		index[uid] = i
		r.Then(uid, func(Placement) { routed[i].Add(1) })
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for uid, i := range index {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if !r.Route(Placement{Req: Request{UID: uid}}) {
				return
			}
			if routed[i].Load() != 1 {
				t.Errorf("%s: Route reported a waiter and ran it %d times", uid, routed[i].Load())
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if r.Cancel(uid) {
				cancelled[i].Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, uid := range r.Drain() {
			drained[index[uid]].Add(1)
		}
	}()
	close(start)
	wg.Wait()
	for uid, i := range index {
		if got := routed[i].Load() + cancelled[i].Load() + drained[i].Load(); got != 1 {
			t.Errorf("%s: routed %d, cancelled %d, drained %d times, want one winner",
				uid, routed[i].Load(), cancelled[i].Load(), drained[i].Load())
		}
	}
}

// TestRouterDrainedPlacementReleasedSingleWinnerRace: the scheduler commits a
// placement while the shutdown drain takes its waiter. Whichever wins, the
// capacity is given back exactly once — by the PlaceFn when Route finds the
// waiter gone, by the waiter when its continuation ran — and the scheduler's
// snapshot shows all of it free.
func TestRouterDrainedPlacementReleasedSingleWinnerRace(t *testing.T) {
	const n = 64
	r := NewRouter()
	var s *Scheduler
	var released, continued atomic.Int32
	settled := make(chan struct{}, n)
	s = New(nodes(1, n, 0), func(pl Placement) {
		if !r.Route(pl) {
			s.Release(pl.Alloc)
			released.Add(1)
			settled <- struct{}{}
		}
	})
	defer s.Close()
	for i := 0; i < n; i++ {
		r.Then(fmt.Sprintf("task.%04d", i), func(pl Placement) {
			s.Release(pl.Alloc)
			continued.Add(1)
			settled <- struct{}{}
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var drained []string
	go func() {
		defer wg.Done()
		drained = r.Drain()
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := s.Submit(Request{UID: fmt.Sprintf("task.%04d", i), Cores: 1}); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		select {
		case <-settled:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d placements settled", i, n)
		}
	}
	if int(released.Load()) != len(drained) || int(continued.Load()) != n-len(drained) {
		t.Fatalf("%d drained, %d released by the PlaceFn, %d continued, of %d", len(drained), released.Load(), continued.Load(), n)
	}
	if sn := s.Snapshot(); sn.Waiting != 0 || sn.Scheduled != n || sn.MaxFreeCores != n {
		t.Fatalf("snapshot after the drain: %+v, want nothing waiting, %d granted, %d cores free", sn, n, n)
	}
}

// TestRouterDrainInSubmissionOrderPastSixDigits: Drain returns the UIDs it
// took in submission order when their zero-padded sequence numbers straddle
// the seventh digit, as a pilot's shutdown re-routes its queued tasks: a
// shorter UID first, then by its bytes.
func TestRouterDrainInSubmissionOrderPastSixDigits(t *testing.T) {
	r := NewRouter()
	want := []string{"p.task.999998", "p.task.999999", "p.task.1000000", "p.task.1000001"}
	for _, i := range []int{3, 1, 0, 2} {
		r.Then(want[i], func(Placement) {})
	}
	if got := r.Drain(); !slices.Equal(got, want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
}

package simtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func TestVirtualNowStartsAtOrigin(t *testing.T) {
	v := NewVirtual(origin)
	if !v.Now().Equal(origin) {
		t.Fatalf("Now() = %v, want %v", v.Now(), origin)
	}
}

func TestVirtualAdvanceMovesNow(t *testing.T) {
	v := NewVirtual(origin)
	v.Advance(5 * time.Second)
	if got := v.Now(); !got.Equal(origin.Add(5 * time.Second)) {
		t.Fatalf("Now() = %v, want origin+5s", got)
	}
}

func TestVirtualAdvanceToBackwardsIsNoop(t *testing.T) {
	v := NewVirtual(origin)
	v.Advance(time.Second)
	v.AdvanceTo(origin) // earlier than now
	if got := v.Now(); !got.Equal(origin.Add(time.Second)) {
		t.Fatalf("Now() = %v, want origin+1s", got)
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := NewVirtual(origin)
	ch := v.NewTimer(3 * time.Second).C()
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	v.Advance(2 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	v.Advance(time.Second)
	select {
	case tm := <-ch:
		if !tm.Equal(origin.Add(3 * time.Second)) {
			t.Fatalf("fired at %v, want origin+3s", tm)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(origin)
	done := make(chan time.Time)
	go func() {
		v.Sleep(10 * time.Second)
		done <- v.Now()
	}()
	// wait until the sleeper is registered
	for v.PendingSleepers() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(10 * time.Second)
	select {
	case woke := <-done:
		if !woke.Equal(origin.Add(10 * time.Second)) {
			t.Fatalf("woke at %v, want origin+10s", woke)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper never woke")
	}
}

func TestVirtualSleepZeroReturnsImmediately(t *testing.T) {
	v := NewVirtual(origin)
	v.Sleep(0)
	v.Sleep(-time.Second)
	if v.PendingSleepers() != 0 {
		t.Fatal("non-positive Sleep registered a sleeper")
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(origin)
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestVirtualTimerStopAfterFire(t *testing.T) {
	v := NewVirtual(origin)
	tm := v.NewTimer(time.Second)
	v.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() = true after fire")
	}
}

func TestVirtualTickerFiresRepeatedly(t *testing.T) {
	v := NewVirtual(origin)
	tk := v.NewTicker(time.Second)
	for i := 1; i <= 3; i++ {
		v.Advance(time.Second)
		select {
		case tm := <-tk.C():
			want := origin.Add(time.Duration(i) * time.Second)
			if !tm.Equal(want) {
				t.Fatalf("tick %d at %v, want %v", i, tm, want)
			}
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
	tk.Stop()
	v.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestVirtualTickerDropsWhenSlow(t *testing.T) {
	v := NewVirtual(origin)
	tk := v.NewTicker(time.Second)
	defer tk.Stop()
	v.Advance(10 * time.Second) // 10 periods, buffer of 1
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n == 0 || n > 2 {
		t.Fatalf("drained %d ticks, want 1..2 (buffered drop semantics)", n)
	}
}

func TestVirtualDeadlineOrdering(t *testing.T) {
	v := NewVirtual(origin)
	chA := v.NewTimer(3 * time.Second).C()
	chB := v.NewTimer(1 * time.Second).C()
	chC := v.NewTimer(2 * time.Second).C()
	ready := func(ch <-chan time.Time) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	v.Advance(time.Second)
	if !ready(chB) || ready(chA) || ready(chC) {
		t.Fatal("after 1s only B should have fired")
	}
	v.Advance(time.Second)
	if !ready(chC) || ready(chA) {
		t.Fatal("after 2s only C should additionally have fired")
	}
	v.Advance(time.Second)
	if !ready(chA) {
		t.Fatal("after 3s A should have fired")
	}
}

func TestVirtualNextDeadline(t *testing.T) {
	v := NewVirtual(origin)
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a deadline on empty clock")
	}
	v.NewTimer(7 * time.Second)
	v.NewTimer(2 * time.Second)
	dl, ok := v.NextDeadline()
	if !ok || !dl.Equal(origin.Add(2*time.Second)) {
		t.Fatalf("NextDeadline = %v/%v, want origin+2s/true", dl, ok)
	}
}

func TestVirtualAutoAdvanceSingle(t *testing.T) {
	v := NewVirtualAuto(origin)
	done := make(chan time.Time)
	v.Go(func() {
		v.Sleep(42 * time.Second)
		done <- v.Now()
	})
	select {
	case woke := <-done:
		if !woke.Equal(origin.Add(42 * time.Second)) {
			t.Fatalf("auto-advance woke at %v, want origin+42s", woke)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("auto-advance never fired")
	}
}

// TestVirtualAutoAdvanceTwoGoroutinesInterleave: two registered sleepers
// wake in deadline order. The unregistered test goroutine holds the clock
// while it spawns them: unheld, the first could run both its sleeps to the
// end alone (each a self-wake) before the second is registered, which then
// sleeps from t=3 and ends the run at t=5.
func TestVirtualAutoAdvanceTwoGoroutinesInterleave(t *testing.T) {
	v := NewVirtualAuto(origin)
	var mu sync.Mutex
	var trace []string
	var wg sync.WaitGroup
	wg.Add(2)
	v.AddRunner()
	v.Go(func() {
		defer wg.Done()
		v.Sleep(1 * time.Second)
		mu.Lock()
		trace = append(trace, "a1")
		mu.Unlock()
		v.Sleep(2 * time.Second) // wakes at t=3
		mu.Lock()
		trace = append(trace, "a3")
		mu.Unlock()
	})
	v.Go(func() {
		defer wg.Done()
		v.Sleep(2 * time.Second) // wakes at t=2
		mu.Lock()
		trace = append(trace, "b2")
		mu.Unlock()
	})
	v.DoneRunner()
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(2 * time.Second):
		t.Fatal("auto-advance deadlocked")
	}
	if !v.Now().Equal(origin.Add(3 * time.Second)) {
		t.Fatalf("final Now() = %v, want origin+3s", v.Now())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(trace) != 3 || trace[0] != "a1" || trace[1] != "b2" || trace[2] != "a3" {
		t.Fatalf("trace = %v, want [a1 b2 a3]", trace)
	}
}

func TestVirtualAutoBlockUnblock(t *testing.T) {
	v := NewVirtualAuto(origin)
	ch := make(chan int)
	done := make(chan time.Time)
	// Producer sleeps 5s then sends; consumer blocks on the channel. Without
	// Block/Unblock the clock would stall (consumer counted as runnable).
	v.Go(func() {
		v.Sleep(5 * time.Second)
		ch <- 1
	})
	v.Go(func() {
		v.Block()
		<-ch
		v.Unblock()
		done <- v.Now()
	})
	select {
	case woke := <-done:
		if !woke.Equal(origin.Add(5 * time.Second)) {
			t.Fatalf("consumer resumed at %v, want origin+5s", woke)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Block/Unblock coordination deadlocked")
	}
}

func TestVirtualMonotonicityProperty(t *testing.T) {
	// Property: for any sequence of positive advances and timer arms, Now()
	// never decreases and all timers fire at exactly their deadline.
	f := func(steps []uint16) bool {
		v := NewVirtual(origin)
		prev := v.Now()
		for _, s := range steps {
			d := time.Duration(s%1000+1) * time.Millisecond
			ch := v.NewTimer(d).C()
			v.Advance(d)
			got := <-ch
			if got.Before(prev) {
				return false
			}
			if !got.Equal(prev.Add(d)) {
				return false
			}
			prev = v.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSleepCtxVirtual(t *testing.T) {
	v := NewVirtual(origin)
	done := make(chan error, 1)
	go func() { done <- SleepCtx(t.Context(), v, time.Second) }()
	for v.PendingSleepers() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	if err := <-done; err != nil {
		t.Fatalf("SleepCtx = %v, want nil", err)
	}
}

// runOn runs fn as a goroutine registered with v and waits for it.
func runOn(v *Virtual, fn func()) {
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// TestSleepCtxAutoPullsTime: on an auto-advancing clock a cancellable SleepCtx
// is a Sleep that pulls time forward, not a timer waiting for somebody else to.
func TestSleepCtxAutoPullsTime(t *testing.T) {
	v := NewVirtualAuto(origin)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runOn(v, func() {
		if err := SleepCtx(ctx, v, time.Second); err != nil {
			t.Errorf("SleepCtx = %v, want nil", err)
		}
		if !v.Now().Equal(origin.Add(time.Second)) {
			t.Errorf("SleepCtx returned at %v, want origin+1s", v.Now())
		}
	})
	if n := v.PendingSleepers(); n != 0 {
		t.Fatalf("%d sleepers pending after the sleep", n)
	}
}

// TestSleepCtxAutoCancelBalances: a cancel mid-sleep returns ctx.Err, takes the
// sleeper off the heap and gives the sleeper back its runner, so its next Sleep
// self-wakes and the far deadline never fires.
func TestSleepCtxAutoCancelBalances(t *testing.T) {
	v := NewVirtualAuto(origin)
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	runOn(v, func() {
		v.Go(func() {
			v.Sleep(time.Second)
			cancel()
			<-returned // registered and runnable: holds the clock until the sleeper is back
		})
		err := SleepCtx(ctx, v, time.Hour)
		close(returned)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("SleepCtx = %v, want context.Canceled", err)
		}
		v.mu.Lock()
		running, sleeping, pending := v.running, v.sleeping, len(v.sleepers)
		v.mu.Unlock()
		if sleeping != 0 || pending != 0 || running < 1 {
			t.Errorf("after the cancel: running %d, sleeping %d, pending %d; want >= 1, 0, 0", running, sleeping, pending)
		}
		v.Sleep(time.Second)
		if want := origin.Add(2 * time.Second); !v.Now().Equal(want) {
			t.Errorf("next Sleep woke at %v, want %v", v.Now(), want)
		}
	})
}

// TestSleepCtxAutoPlainContextSleeps: a context that cannot be cancelled takes
// Sleep itself, whose lone runner self-wakes without a sleeper.
func TestSleepCtxAutoPlainContextSleeps(t *testing.T) {
	v := NewVirtualAuto(origin)
	runOn(v, func() {
		allocs := testing.AllocsPerRun(100, func() {
			if err := SleepCtx(context.Background(), v, time.Second); err != nil {
				t.Errorf("SleepCtx = %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("SleepCtx under context.Background allocates %.1f objects a sleep, want 0 (Sleep's self-wake)", allocs)
		}
	})
	if want := origin.Add(101 * time.Second); !v.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", v.Now(), want)
	}
}

// TestSettleWaitsForOthersToPark: Settle returns once every other registered
// goroutine sleeps or blocks, without moving time.
func TestSettleWaitsForOthersToPark(t *testing.T) {
	v := NewVirtualAuto(origin)
	var mu sync.Mutex
	ran := 0
	runOn(v, func() {
		for i := 0; i < 3; i++ {
			v.Go(func() {
				mu.Lock()
				ran++
				mu.Unlock()
				v.Sleep(time.Hour)
			})
		}
		v.Settle()
		mu.Lock()
		defer mu.Unlock()
		if ran != 3 || v.PendingSleepers() != 3 || !v.Now().Equal(origin) {
			t.Errorf("Settle returned with %d of 3 run, %d asleep, at %v; want 3, 3, origin", ran, v.PendingSleepers(), v.Now())
		}
	})
}

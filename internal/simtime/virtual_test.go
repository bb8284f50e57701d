package simtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// held returns a clock at origin with the test goroutine registered on it
// until the test ends: time moves only when the test sleeps.
func held(t *testing.T) *Virtual {
	v := NewVirtualAuto(origin)
	v.AddRunner()
	t.Cleanup(v.DoneRunner)
	return v
}

// pending is how many timers, tickers and sleepers wait on v.
func pending(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.sleepers)
}

func TestVirtualNowStartsAtOrigin(t *testing.T) {
	v := NewVirtualAuto(origin)
	if !v.Now().Equal(origin) {
		t.Fatalf("Now() = %v, want %v", v.Now(), origin)
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := held(t)
	ch := v.NewTimer(3 * time.Second).C()
	select {
	case <-ch:
		t.Fatal("timer fired before the clock moved")
	default:
	}
	v.Sleep(2 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	v.Sleep(time.Second)
	select {
	case tm := <-ch:
		if !tm.Equal(origin.Add(3 * time.Second)) {
			t.Fatalf("fired at %v, want origin+3s", tm)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

// TestVirtualSleepWakesOnAdvance: a sleeper waits while a registered
// goroutine is runnable and wakes, at its deadline, once the clock gets there.
func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := held(t)
	var woke time.Time
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		v.Sleep(10 * time.Second)
		woke = v.Now()
	})
	v.Settle()
	if n := pending(v); n != 1 || !v.Now().Equal(origin) {
		t.Fatalf("settled with %d pending at %v, want 1 at origin", n, v.Now())
	}
	v.Sleep(10 * time.Second) // ties with the sleeper, which fires first
	<-done
	if !woke.Equal(origin.Add(10 * time.Second)) {
		t.Fatalf("woke at %v, want origin+10s", woke)
	}
}

func TestVirtualSleepZeroReturnsImmediately(t *testing.T) {
	v := NewVirtualAuto(origin)
	v.Sleep(0)
	v.Sleep(-time.Second)
	if pending(v) != 0 || !v.Now().Equal(origin) {
		t.Fatal("non-positive Sleep registered a sleeper")
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := held(t)
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	v.Sleep(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestVirtualTimerStopAfterFire(t *testing.T) {
	v := held(t)
	tm := v.NewTimer(time.Second)
	v.Sleep(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() = true after fire")
	}
}

func TestVirtualTickerFiresRepeatedly(t *testing.T) {
	v := held(t)
	tk := v.NewTicker(time.Second)
	for i := 1; i <= 3; i++ {
		v.Sleep(time.Second)
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
	v.Sleep(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestVirtualTickerDropsWhenSlow(t *testing.T) {
	v := held(t)
	tk := v.NewTicker(time.Second)
	defer tk.Stop()
	v.Sleep(10 * time.Second) // 10 periods, buffer of 1
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
	v := held(t)
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
	v.Sleep(time.Second)
	if !ready(chB) || ready(chA) || ready(chC) {
		t.Fatal("after 1s only B should have fired")
	}
	v.Sleep(time.Second)
	if !ready(chC) || ready(chA) {
		t.Fatal("after 2s only C should additionally have fired")
	}
	v.Sleep(time.Second)
	if !ready(chA) {
		t.Fatal("after 3s A should have fired")
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

func TestVirtualAutoHandoffWakesAtSend(t *testing.T) {
	v := NewVirtualAuto(origin)
	var h Handoff[int]
	h.Arm(v)
	done := make(chan time.Time)
	// Producer sleeps 5s then sends; consumer waits on the hand-off. A
	// consumer counted as runnable while it waits would stall the clock.
	v.Go(func() {
		v.Sleep(5 * time.Second)
		h.Send(1)
	})
	v.Go(func() {
		h.Recv(context.Background())
		done <- v.Now()
	})
	select {
	case woke := <-done:
		if !woke.Equal(origin.Add(5 * time.Second)) {
			t.Fatalf("consumer resumed at %v, want origin+5s", woke)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hand-off deadlocked")
	}
}

func TestVirtualMonotonicityProperty(t *testing.T) {
	// Property: for any sequence of positive sleeps and timer arms, Now()
	// never decreases and all timers fire at exactly their deadline.
	f := func(steps []uint16) bool {
		v := NewVirtualAuto(origin)
		v.AddRunner()
		defer v.DoneRunner()
		prev := v.Now()
		for _, s := range steps {
			d := time.Duration(s%1000+1) * time.Millisecond
			ch := v.NewTimer(d).C()
			v.Sleep(d)
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

// TestSleepCtxVirtual: an unregistered caller's cancellable sleep moves the
// clock when nothing registered is runnable.
func TestSleepCtxVirtual(t *testing.T) {
	v := NewVirtualAuto(origin)
	if err := SleepCtx(t.Context(), v, time.Second); err != nil {
		t.Fatalf("SleepCtx = %v, want nil", err)
	}
	if !v.Now().Equal(origin.Add(time.Second)) || pending(v) != 0 {
		t.Fatalf("SleepCtx returned at %v with %d pending, want origin+1s and 0", v.Now(), pending(v))
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
	if n := pending(v); n != 0 {
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
		if ran != 3 || pending(v) != 3 || !v.Now().Equal(origin) {
			t.Errorf("Settle returned with %d of 3 run, %d asleep, at %v; want 3, 3, origin", ran, pending(v), v.Now())
		}
	})
}

// TestRunnersOf: only a virtual clock has runnability accounting; clocks that
// advance on their own report none, so callers skip their accounting calls.
func TestRunnersOf(t *testing.T) {
	v := NewVirtualAuto(origin)
	for _, tc := range []struct {
		name  string
		clock Clock
		want  *Virtual
	}{
		{"virtual", v, v},
		{"real", NewReal(), nil},
		{"scaled", NewScaled(1000, origin), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := RunnersOf(tc.clock); got != tc.want {
				t.Fatalf("RunnersOf(%T) = %p, want %p", tc.clock, got, tc.want)
			}
		})
	}
}

// TestVirtualTimersAloneDoNotPullTime: with every registered goroutine parked
// and nobody in Sleep, a pending timer does not move the clock.
func TestVirtualTimersAloneDoNotPullTime(t *testing.T) {
	v := NewVirtualAuto(origin)
	tm := v.NewTimer(time.Second)
	v.AddRunner()
	v.DoneRunner() // nothing runnable: the clock may advance only for a sleeper
	select {
	case <-tm.C():
		t.Fatal("a timer alone pulled the clock to its deadline")
	default:
	}
	if n := pending(v); n != 1 || !v.Now().Equal(origin) {
		t.Fatalf("%d pending at %v, want 1 at origin", n, v.Now())
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on a timer that never fired")
	}
}

// TestVirtualFarTimerStaysBehind: a timer set as far ahead as a Duration
// reaches stays pending behind a later finite timer and sleep; its deadline
// does not wrap round to the front of the heap.
func TestVirtualFarTimerStaysBehind(t *testing.T) {
	v := held(t)
	v.Sleep(time.Hour)
	far := v.NewTimer(time.Duration(math.MaxInt64))
	near := v.NewTimer(time.Hour)
	v.Sleep(2 * time.Hour) // parks behind near, which fires at origin+2h
	select {
	case at := <-far.C():
		t.Fatalf("the far timer fired at %v", at)
	default:
	}
	if at := <-near.C(); !at.Equal(origin.Add(2 * time.Hour)) {
		t.Fatalf("near timer fired at %v, want origin+2h", at)
	}
	if got, want := v.Now(), origin.Add(3*time.Hour); !got.Equal(want) || pending(v) != 1 {
		t.Fatalf("Now() = %v with %d pending, want %v with 1", got, pending(v), want)
	}
	if !far.Stop() {
		t.Fatal("Stop() = false on the far timer, which never fired")
	}
}

// TestVirtualNowWhileAdvancingRace: Now takes no lock, so goroutines the clock
// does not know about read it while registered ones sleep it forward. Every
// reading is an instant of the sleepers' schedule, and no reader sees the
// clock go back.
func TestVirtualNowWhileAdvancingRace(t *testing.T) {
	const sleeps = 500
	steps := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}
	instants := map[time.Duration]bool{0: true}
	for _, d := range steps {
		for i := 1; i <= sleeps; i++ {
			instants[time.Duration(i)*d] = true
		}
	}
	v := NewVirtualAuto(origin)
	var stop atomic.Bool
	errs := make([]error, 3)
	var readers sync.WaitGroup
	for r := range errs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev time.Duration
			for !stop.Load() {
				now := v.Now().Sub(origin)
				switch {
				case !instants[now]:
					errs[r] = fmt.Errorf("reader %d read origin+%v, not an instant of the schedule", r, now)
					return
				case now < prev:
					errs[r] = fmt.Errorf("reader %d read origin+%v after origin+%v", r, now, prev)
					return
				}
				prev = now
				runtime.Gosched() // let the sleepers run at GOMAXPROCS 1
			}
		}()
	}
	var sleepers sync.WaitGroup
	v.AddRunner() // hold the clock until both sleepers are registered
	for _, d := range steps {
		sleepers.Add(1)
		v.Go(func() {
			defer sleepers.Done()
			for i := 0; i < sleeps; i++ {
				v.Sleep(d)
			}
		})
	}
	v.DoneRunner()
	sleepers.Wait()
	stop.Store(true)
	readers.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got, want := v.Now(), origin.Add(sleeps*3*time.Millisecond); !got.Equal(want) {
		t.Fatalf("Now() = %v after the schedule, want %v", got, want)
	}
}

// TestVirtualParksCountsEachWait: Parks counts one park per wait a
// registered goroutine parks in, by kind, an Alarm's at its fire, and one
// per timed delivery; a self-waking Sleep parks nobody.
func TestVirtualParksCountsEachWait(t *testing.T) {
	v := held(t)
	v.Sleep(time.Second) // the only runner, nothing pending: a self-wake
	if got := parksOf(v); got != [5]uint64{} {
		t.Fatalf("a self-wake counted %v", got)
	}

	var h Handoff[int]
	h.Arm(v)
	v.Go(func() { h.Recv(context.Background()) })
	v.Settle()
	h.Send(1) // recv 1

	var mu sync.Mutex
	var l Latch
	v.Go(func() {
		mu.Lock()
		defer mu.Unlock()
		l.Wait(context.Background(), v, &mu)
	})
	v.Settle()
	mu.Lock()
	l.Fire() // latch 1
	mu.Unlock()

	a := v.NewAlarm()
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		if a.Wait() {
			v.DoneRunner()
		}
	}()
	a.Set(time.Second)
	v.Sleep(2 * time.Second) // sleep 1: the alarm is due first; alarm 1 at its fire
	<-followed

	h.Arm(v)
	v.Go(func() { h.Recv(context.Background()) })
	v.Settle()
	h.SendAfter(2, time.Second) // recv 2, delivered 1
	v.Sleep(2 * time.Second)    // sleep 2: the delivery is due first
	v.Settle()

	if got, want := parksOf(v), [5]uint64{2, 2, 1, 1, 1}; got != want {
		t.Fatalf("parks (sleep, recv, alarm, latch, delivered) = %v, want %v", got, want)
	}
}

// TestVirtualIsThreeCacheLines: Virtual's layout by cache line holds only
// while it is 192 bytes, a size class whose objects all start on a line.
func TestVirtualIsThreeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Virtual{}); size != 192 {
		t.Fatalf("Virtual is %d bytes; lay its fields out again in three 64-byte lines and pad it to 192", size)
	}
}

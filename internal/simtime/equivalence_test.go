package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// The tests below pin what Sleep's two shortcuts (the self-wake and the
// recycled sleepers) must leave untouched: the order in which an
// auto-advancing clock delivers wakes, timer fires and ticks is the order
// of (deadline, seq), whatever path each Sleep took.

// A program is one script per registered goroutine. Time is in units of
// microseconds and residue classes keep deadlines of different goroutines
// apart: goroutine g first sleeps g+1 units and from then on only uses
// multiples of the modulus, the ticker (class 0) ticks on multiples of it.
// So equal deadlines only ever meet within one goroutine, where program
// order fixes their seq, and the expected order does not depend on which
// of several runnable goroutines reaches the clock first.
const progUnit = time.Microsecond

type progOp int

const (
	opSleep progOp = iota // Sleep(d)
	opBlock               // park in Block until a helper that sleeps d hands over
	opTimer               // NewTimer(d)
	opStop                // Stop the k-th timer this goroutine created
)

type progStep struct {
	op progOp
	d  time.Duration
	k  int
}

type program struct {
	scripts [][]progStep
	period  time.Duration // ticker period; goroutine 0 drains and finally stops it
}

func randomProgram(r *rand.Rand) program {
	k := 1 + r.Intn(5)
	mod := time.Duration(k+1) * progUnit
	p := program{period: mod * time.Duration(1+r.Intn(4))}
	for g := 0; g < k; g++ {
		script := []progStep{{op: opSleep, d: time.Duration(g+1) * progUnit}}
		timers := 0
		for n := 4 + r.Intn(24); n > 0; n-- {
			d := mod * time.Duration(1+r.Intn(6))
			switch c := r.Intn(10); {
			case c < 4:
				script = append(script, progStep{op: opSleep, d: d})
			case c < 6:
				script = append(script, progStep{op: opBlock, d: d})
			case c < 9 || timers == 0:
				script = append(script, progStep{op: opTimer, d: d})
				timers++
			default:
				script = append(script, progStep{op: opStop, k: r.Intn(timers)})
			}
		}
		p.scripts = append(p.scripts, script)
	}
	return p
}

// progTrace is what a run of a program shows: every goroutine's own log,
// the global order of wakes, and the clock's final state.
type progTrace struct {
	logs    [][]string
	wakes   []string
	now     time.Duration
	pending int
}

func wakeEntry(g, step int, now time.Duration) string {
	return fmt.Sprintf("g%d step %d woke at %v", g, step, now)
}
func firedEntry(k int, at time.Duration) string { return fmt.Sprintf("timer %d fired at %v", k, at) }
func stopEntry(k int, ok bool) string           { return fmt.Sprintf("timer %d Stop = %v", k, ok) }
func tickEntry(at time.Duration, ok bool) string {
	if !ok {
		return "no tick"
	}
	return fmt.Sprintf("first tick at %v", at)
}

// expect computes a program's trace with nothing but a slice sorted by
// (deadline, seq): no heap, no runner counts, no fast path.
func expect(p program) progTrace {
	type event struct {
		deadline time.Duration
		seq      int
		g, k     int // wake: g, k = -1; timer: g and its index; tick: g = -1
	}
	type timer struct {
		deadline                 time.Duration
		fired, stopped, reported bool
	}
	var (
		tr      = progTrace{logs: make([][]string, len(p.scripts))}
		events  []event
		seq     int
		pc      = make([]int, len(p.scripts))
		timers  = make([][]timer, len(p.scripts))
		tick    time.Duration
		hasTick bool
	)
	push := func(e event) {
		e.seq = seq
		seq++
		events = append(events, e)
	}
	remove := func(match func(event) bool) {
		for i, e := range events {
			if match(e) {
				events = append(events[:i], events[i+1:]...)
				return
			}
		}
	}
	// run executes g's script from pc[g] up to its next park.
	run := func(g int) {
		for ; pc[g] < len(p.scripts[g]); pc[g]++ {
			switch s := p.scripts[g][pc[g]]; s.op {
			case opSleep, opBlock:
				push(event{deadline: tr.now + s.d, g: g, k: -1})
				return
			case opTimer:
				push(event{deadline: tr.now + s.d, g: g, k: len(timers[g])})
				timers[g] = append(timers[g], timer{deadline: tr.now + s.d})
			case opStop:
				tm := &timers[g][s.k]
				ok := !tm.fired && !tm.stopped
				if ok {
					tm.stopped = true
					remove(func(e event) bool { return e.g == g && e.k == s.k })
				}
				tr.logs[g] = append(tr.logs[g], stopEntry(s.k, ok))
			}
		}
		if g == 0 {
			remove(func(e event) bool { return e.g < 0 })
		}
	}
	push(event{deadline: p.period, g: -1})
	for g := range p.scripts {
		run(g)
	}
	sleeping := func() bool {
		for _, e := range events {
			if e.g >= 0 && e.k < 0 {
				return true
			}
		}
		return false
	}
	for sleeping() {
		sort.Slice(events, func(i, j int) bool {
			if events[i].deadline != events[j].deadline {
				return events[i].deadline < events[j].deadline
			}
			return events[i].seq < events[j].seq
		})
		e := events[0]
		events = events[1:]
		tr.now = e.deadline
		switch {
		case e.g < 0:
			if !hasTick {
				tick, hasTick = tr.now, true
			}
			push(event{deadline: e.deadline + p.period, g: -1})
		case e.k >= 0:
			timers[e.g][e.k].fired = true
		default:
			g := e.g
			w := wakeEntry(g, pc[g], tr.now)
			tr.wakes = append(tr.wakes, w)
			tr.logs[g] = append(tr.logs[g], w)
			for k := range timers[g] {
				if tm := &timers[g][k]; tm.fired && !tm.reported {
					tm.reported = true
					tr.logs[g] = append(tr.logs[g], firedEntry(k, tm.deadline))
				}
			}
			if g == 0 {
				tr.logs[g] = append(tr.logs[g], tickEntry(tick, hasTick))
				hasTick = false
			}
			pc[g]++
			run(g)
		}
	}
	tr.pending = len(events)
	return tr
}

// execute runs the program on a NewVirtualAuto clock.
func execute(t *testing.T, p program) progTrace {
	t.Helper()
	v := NewVirtualAuto(origin)
	tr := progTrace{logs: make([][]string, len(p.scripts))}
	var mu sync.Mutex // guards tr.wakes
	ticker := v.NewTicker(p.period)
	var wg sync.WaitGroup
	v.AddRunner() // register before spawn: hold the clock until every goroutine has its token
	for g := range p.scripts {
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			log := func(s string) { tr.logs[g] = append(tr.logs[g], s) }
			var timers []Timer
			var reported []bool
			for i, s := range p.scripts[g] {
				switch s.op {
				case opTimer:
					timers = append(timers, v.NewTimer(s.d))
					reported = append(reported, false)
					continue
				case opStop:
					log(stopEntry(s.k, timers[s.k].Stop()))
					continue
				case opSleep:
					v.Sleep(s.d)
				case opBlock:
					ch := make(chan struct{})
					v.Go(func() {
						v.Sleep(s.d)
						v.Unblock() // the wake token, before the wake
						ch <- struct{}{}
					})
					v.Block()
					<-ch
				}
				w := wakeEntry(g, i, v.Now().Sub(origin))
				mu.Lock()
				tr.wakes = append(tr.wakes, w)
				mu.Unlock()
				log(w)
				for k, tm := range timers {
					if reported[k] {
						continue
					}
					select {
					case at := <-tm.C():
						reported[k] = true
						log(firedEntry(k, at.Sub(origin)))
					default:
					}
				}
				if g == 0 {
					select {
					case at := <-ticker.C():
						log(tickEntry(at.Sub(origin), true))
					default:
						log(tickEntry(0, false))
					}
				}
			}
			if g == 0 {
				ticker.Stop()
			}
		})
	}
	v.DoneRunner()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("program deadlocked")
	}
	tr.now = v.Now().Sub(origin)
	tr.pending = v.PendingSleepers()
	return tr
}

func TestVirtualAutoDeliversDeadlineSeqOrder(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		want, got := expect(p), execute(t, p)
		if fmt.Sprint(got.wakes) != fmt.Sprint(want.wakes) {
			t.Fatalf("seed %d: wake order\n got %v\nwant %v", seed, got.wakes, want.wakes)
		}
		for g := range want.logs {
			if fmt.Sprint(got.logs[g]) != fmt.Sprint(want.logs[g]) {
				t.Fatalf("seed %d: goroutine %d saw\n got %v\nwant %v", seed, g, got.logs[g], want.logs[g])
			}
		}
		if got.now != want.now || got.pending != want.pending {
			t.Fatalf("seed %d: ended at %v with %d pending, want %v with %d",
				seed, got.now, got.pending, want.now, want.pending)
		}
	}
}

// freeSleepers is how many spent sleepers the clock holds: a Sleep that
// took the self-wake path leaves none behind, one that parked leaves one.
func freeSleepers(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.free)
}

func TestVirtualSelfWakeYieldsToEqualDeadline(t *testing.T) {
	v := NewVirtualAuto(origin)
	v.AddRunner()
	defer v.DoneRunner()
	ch := v.After(5 * time.Second) // same deadline, created first: lower seq
	v.Sleep(5 * time.Second)
	select {
	case at := <-ch:
		if !at.Equal(origin.Add(5 * time.Second)) {
			t.Fatalf("timer fired at %v, want origin+5s", at)
		}
	default:
		t.Fatal("Sleep returned before the earlier timer with the same deadline fired")
	}
	if freeSleepers(v) != 1 {
		t.Fatal("a Sleep tied with a pending timer must park, not self-wake")
	}
	v.Sleep(time.Second) // nothing else pending: strictly earliest
	if got := v.Now(); !got.Equal(origin.Add(6 * time.Second)) {
		t.Fatalf("Now() = %v, want origin+6s", got)
	}
	if freeSleepers(v) != 1 || v.PendingSleepers() != 0 {
		t.Fatalf("sole runnable sleeper did not self-wake: %d free, %d pending", freeSleepers(v), v.PendingSleepers())
	}
}

func TestVirtualTickerDueBeforeSleeperFiresOnTheWay(t *testing.T) {
	v := NewVirtualAuto(origin)
	v.AddRunner()
	defer v.DoneRunner()
	tk := v.NewTicker(3 * time.Second)
	defer tk.Stop()
	v.Sleep(time.Second) // before the first tick: nothing fires
	select {
	case at := <-tk.C():
		t.Fatalf("tick at %v before it was due", at)
	default:
	}
	v.Sleep(9 * time.Second) // wakes at 10s, past the ticks at 3s, 6s and 9s
	if at := <-tk.C(); !at.Equal(origin.Add(3 * time.Second)) {
		t.Fatalf("first tick at %v, want origin+3s", at)
	}
	if got := v.Now(); !got.Equal(origin.Add(10 * time.Second)) {
		t.Fatalf("Now() = %v, want origin+10s", got)
	}
	if next, _ := v.NextDeadline(); !next.Equal(origin.Add(12 * time.Second)) {
		t.Fatalf("ticker re-armed for %v, want origin+12s", next)
	}
}

func TestVirtualSleepSlowPathCallers(t *testing.T) {
	t.Run("unregistered", func(t *testing.T) {
		v := NewVirtualAuto(origin)
		later := v.After(8 * time.Second)
		v.Sleep(5 * time.Second) // running is 0, not 1
		if got := v.Now(); !got.Equal(origin.Add(5 * time.Second)) {
			t.Fatalf("Now() = %v, want origin+5s", got)
		}
		select {
		case <-later:
			t.Fatal("timer past the sleeper fired")
		default:
		}
		if freeSleepers(v) != 1 {
			t.Fatal("unregistered caller took the self-wake path")
		}
	})
	t.Run("manual", func(t *testing.T) {
		v := NewVirtual(origin)
		v.AddRunner() // inert on a manual clock, but makes running == 1
		done := make(chan struct{})
		go func() { v.Sleep(time.Second); close(done) }()
		for v.PendingSleepers() == 0 {
			select {
			case <-done:
				t.Fatal("Sleep returned on a manual clock before Advance")
			case <-time.After(time.Millisecond):
			}
		}
		v.Advance(time.Second)
		<-done
		for freeSleepers(v) == 0 { // Sleep returns its sleeper after the wake
			time.Sleep(time.Millisecond)
		}
	})
}

func TestVirtualAutoSleepNonPositiveReturnsImmediately(t *testing.T) {
	v := NewVirtualAuto(origin)
	v.After(time.Second)
	v.Sleep(0)
	v.Sleep(-time.Second)
	if !v.Now().Equal(origin) || v.PendingSleepers() != 1 || freeSleepers(v) != 0 {
		t.Fatalf("Sleep(<= 0) touched the clock: now %v, %d pending, %d free", v.Now(), v.PendingSleepers(), freeSleepers(v))
	}
}

func TestVirtualSequentialSleepsAllocateNothing(t *testing.T) {
	const sleeps = 100000
	t.Run("self-wake", func(t *testing.T) {
		v := NewVirtualAuto(origin)
		v.AddRunner()
		defer v.DoneRunner()
		if n := testing.AllocsPerRun(sleeps, func() { v.Sleep(time.Millisecond) }); n != 0 {
			t.Fatalf("%v allocs per self-woken Sleep, want 0", n)
		}
		if v.PendingSleepers() != 0 || freeSleepers(v) != 0 {
			t.Fatalf("%d pending, %d free after self-woken sleeps", v.PendingSleepers(), freeSleepers(v))
		}
		if got := v.Now(); !got.Equal(origin.Add((sleeps + 1) * time.Millisecond)) {
			t.Fatalf("Now() = %v after %d+1 sleeps of 1ms", got, sleeps)
		}
	})
	t.Run("recycled", func(t *testing.T) {
		v := NewVirtualAuto(origin)
		v.AddRunner()
		defer v.DoneRunner()
		// Every sleep ties with the tick re-armed before it, so every one parks.
		tk := v.NewTicker(time.Millisecond)
		if n := testing.AllocsPerRun(sleeps, func() { v.Sleep(time.Millisecond) }); n != 0 {
			t.Fatalf("%v allocs per parked Sleep, want 0 (recycled sleeper)", n)
		}
		tk.Stop()
		if v.PendingSleepers() != 0 || freeSleepers(v) != 1 {
			t.Fatalf("%d pending, %d free after parked sleeps, want 0 and 1", v.PendingSleepers(), freeSleepers(v))
		}
	})
}

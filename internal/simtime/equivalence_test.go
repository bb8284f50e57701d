package simtime

import (
	"context"
	"errors"
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
	opSleep   progOp = iota // Sleep(d)
	opRecv                  // Handoff.Recv until a helper that sleeps d sends
	opSend                  // Handoff.Send to a helper that sleeps d and sends back
	opAbandon               // Handoff.Recv whose ctx a helper that sleeps d cancels; a helper that sleeps long sends too late
	opTimer                 // NewTimer(d)
	opStop                  // Stop the k-th timer this goroutine created
	opCancel                // SleepCtx(long), cancelled by a helper that sleeps d
)

type progStep struct {
	op   progOp
	d    time.Duration
	long time.Duration // opCancel's SleepCtx and opAbandon's late Send, longer than d
	k    int
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
			switch c := r.Intn(16); {
			case c < 4:
				script = append(script, progStep{op: opSleep, d: d})
			case c < 6:
				script = append(script, progStep{op: opRecv, d: d})
			case c < 8:
				script = append(script, progStep{op: opSend, d: d})
			case c < 10:
				long := d + mod*time.Duration(1+r.Intn(6))
				script = append(script, progStep{op: opAbandon, d: d, long: long})
			case c < 12:
				long := d + mod*time.Duration(1+r.Intn(6))
				script = append(script, progStep{op: opCancel, d: d, long: long})
			case c < 15 || timers == 0:
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
// the global order of wakes, the clock's final state, and what the helpers
// saw go wrong.
type progTrace struct {
	logs    [][]string
	wakes   []string
	now     time.Duration
	pending int
	bad     []string
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
		g, k     int // wake: g, k = -1; cancel: g, k = -2; late send: g, k = -3; timer: g and its index; tick: g = -1
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
			case opSleep, opRecv, opSend:
				push(event{deadline: tr.now + s.d, g: g, k: -1})
				return
			case opAbandon:
				push(event{deadline: tr.now + s.long, g: g, k: -3})
				push(event{deadline: tr.now + s.d, g: g, k: -2})
				return
			case opCancel:
				push(event{deadline: tr.now + s.long, g: g, k: -1})
				push(event{deadline: tr.now + s.d, g: g, k: -2})
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
		case e.k == -3: // the late Send finds the Recv gone
		default:
			g := e.g
			if e.k == -2 { // the cancel cuts g's long sleep short
				remove(func(e event) bool { return e.g == g && e.k == -1 })
			}
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
	var mu sync.Mutex // guards tr.wakes and tr.bad
	bad := func(s string) {
		mu.Lock()
		tr.bad = append(tr.bad, s)
		mu.Unlock()
	}
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
				case opRecv:
					var h Handoff[int]
					h.Arm(v)
					v.Go(func() {
						v.Sleep(s.d)
						if !h.Send(i) {
							bad(fmt.Sprintf("g%d step %d: Send refused", g, i))
						}
					})
					if got, err := h.Recv(context.Background()); got != i || err != nil {
						log(fmt.Sprintf("Recv = %d, %v, want %d, nil", got, err, i))
					}
				case opSend:
					var there, back Handoff[int]
					there.Arm(v)
					back.Arm(v)
					v.Go(func() {
						got, _ := there.Recv(context.Background())
						v.Sleep(s.d)
						back.Send(got + 1)
					})
					if !there.Send(i) {
						log("Send refused")
					}
					if got, _ := back.Recv(context.Background()); got != i+1 {
						log(fmt.Sprintf("sent %d, got %d back", i, got))
					}
				case opAbandon:
					var h Handoff[int]
					h.Arm(v)
					ctx, cancel := context.WithCancel(context.Background())
					back := make(chan struct{})
					v.Go(func() {
						v.Sleep(s.d)
						cancel()
						<-back // runnable: holds the clock until the receiver is back
					})
					wg.Add(1)
					v.Go(func() {
						defer wg.Done()
						v.Sleep(s.long)
						if h.Send(i) {
							bad(fmt.Sprintf("g%d step %d: a Send after the abandon was delivered", g, i))
						}
					})
					if _, err := h.Recv(ctx); !errors.Is(err, context.Canceled) {
						log(fmt.Sprintf("Recv = %v, want context.Canceled", err))
					}
					close(back)
				case opCancel:
					ctx, cancel := context.WithCancel(context.Background())
					back := make(chan struct{})
					v.Go(func() {
						v.Sleep(s.d)
						cancel()
						<-back // runnable: holds the clock until the sleeper is back
					})
					if err := SleepCtx(ctx, v, s.long); !errors.Is(err, context.Canceled) {
						log(fmt.Sprintf("SleepCtx = %v, want context.Canceled", err))
					}
					close(back)
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
	tr.pending = pending(v)
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
		if len(got.bad) > 0 {
			t.Fatalf("seed %d: %v", seed, got.bad)
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
	ch := v.NewTimer(5 * time.Second).C() // same deadline, created first: lower seq
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
	if freeSleepers(v) != 1 || pending(v) != 0 {
		t.Fatalf("sole runnable sleeper did not self-wake: %d free, %d pending", freeSleepers(v), pending(v))
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
	v.mu.Lock()
	next := v.sleepers[0].deadline
	v.mu.Unlock()
	if next != int64(12*time.Second) {
		t.Fatalf("ticker re-armed for origin+%v, want origin+12s", time.Duration(next))
	}
}

func TestVirtualSleepSlowPathCallers(t *testing.T) {
	t.Run("unregistered", func(t *testing.T) {
		v := NewVirtualAuto(origin)
		later := v.NewTimer(8 * time.Second).C()
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
}

func TestVirtualAutoSleepNonPositiveReturnsImmediately(t *testing.T) {
	v := NewVirtualAuto(origin)
	v.NewTimer(time.Second)
	v.Sleep(0)
	v.Sleep(-time.Second)
	if !v.Now().Equal(origin) || pending(v) != 1 || freeSleepers(v) != 0 {
		t.Fatalf("Sleep(<= 0) touched the clock: now %v, %d pending, %d free", v.Now(), pending(v), freeSleepers(v))
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
		if pending(v) != 0 || freeSleepers(v) != 0 {
			t.Fatalf("%d pending, %d free after self-woken sleeps", pending(v), freeSleepers(v))
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
		if pending(v) != 0 || freeSleepers(v) != 1 {
			t.Fatalf("%d pending, %d free after parked sleeps, want 0 and 1", pending(v), freeSleepers(v))
		}
	})
}

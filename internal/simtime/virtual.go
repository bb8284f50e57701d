package simtime

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Time moves only when
// every goroutine registered with the clock is parked and at least one of
// them sleeps on it: the clock then jumps to the earliest pending deadline,
// firing the timers and tickers due on the way in (deadline, seq) order.
// Timers and tickers alone never pull time forward.
//
// This is the classic cooperative discrete-event simulation contract, and a
// component that hands work between goroutines over channels must keep the
// clock's accounting of who is runnable:
//
//   - Go, or AddRunner/DoneRunner around the goroutine's lifetime, registers
//     a goroutine that participates in simulated time. The spawner adds the
//     runner before the go statement, never the goroutine itself.
//   - Block marks the calling registered goroutine as parked on something
//     other than the clock (a channel receive, a WaitGroup); Unblock marks it
//     runnable again. A goroutine that wakes another via a channel send calls
//     Unblock on the sleeper's behalf (a wake token) so the clock never
//     advances while a wakeup is still in flight.
//
// The contract is asymmetric by design: a transient overcount (an extra
// Unblock before the matching Block lands) merely pauses advancement until
// the counts settle, while an undercount would let the clock advance
// concurrently with runnable goroutines and destroy determinism. Protocols
// built on the accounting therefore always issue the wake token before the
// wake itself.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	sleepers sleeperHeap
	seq      uint64 // tiebreaker for equal deadlines: FIFO order
	running  int    // registered runnable goroutines
	// sleeping counts pending blocksRunner sleepers. The advance loop only
	// moves time while one exists: a Sleep waking is the only way firing
	// can hand control back to a goroutine, so with none pending,
	// advancing would just spin re-arming tickers.
	sleeping int
	// free holds Sleep's spent sleepers for reuse. Their channels never
	// leave Sleep, so a sleeper returned after its wake is safe to hand to
	// the next Sleep; the list grows on demand and is bounded by the peak
	// number of concurrent Sleep callers.
	free []*sleeper
	// settled is the Settle caller's wake, closed once running is down to it.
	settled chan struct{}
}

// NewVirtualAuto returns a virtual clock starting at origin.
func NewVirtualAuto(origin time.Time) *Virtual {
	return &Virtual{now: origin}
}

// RunnersOf returns c's runnability accounting: c itself when it is a
// *Virtual, or nil for clocks that advance on their own (Real, Scaled).
// Callers gate their accounting calls on the nil check, so the same code
// runs unchanged on every clock.
func RunnersOf(c Clock) *Virtual {
	v, _ := c.(*Virtual)
	return v
}

type sleeper struct {
	deadline time.Time
	seq      uint64
	period   time.Duration // > 0 for tickers: re-armed on fire
	ch       chan time.Time
	stopped  bool
	index    int
	// blocksRunner marks sleepers created by Sleep: firing them returns a
	// registered goroutine to the runnable pool.
	blocksRunner bool
}

type sleeperHeap []*sleeper

func (h sleeperHeap) Len() int { return len(h) }
func (h sleeperHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h sleeperHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *sleeperHeap) Push(x any) {
	s := x.(*sleeper)
	s.index = len(*h)
	*h = append(*h, s)
}
func (h *sleeperHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.index = -1
	*h = old[:n-1]
	return s
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Go spawns fn as a goroutine registered with the clock. The registration
// is released when fn returns.
func (v *Virtual) Go(fn func()) {
	v.AddRunner()
	go func() {
		defer v.DoneRunner()
		fn()
	}()
}

// AddRunner registers the calling (or an about-to-start) goroutine as
// runnable.
func (v *Virtual) AddRunner() {
	v.mu.Lock()
	v.running++
	v.mu.Unlock()
}

// DoneRunner deregisters a goroutine previously registered with AddRunner.
func (v *Virtual) DoneRunner() {
	v.mu.Lock()
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// Block marks the calling registered goroutine as not runnable, because it
// is about to wait on something other than the clock (e.g. a channel).
func (v *Virtual) Block() {
	v.mu.Lock()
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// Unblock marks the calling registered goroutine as runnable again.
func (v *Virtual) Unblock() {
	v.mu.Lock()
	v.running++
	v.mu.Unlock()
}

func (v *Virtual) push(deadline time.Time, period time.Duration) *sleeper {
	s := &sleeper{deadline: deadline, seq: v.seq, period: period, ch: make(chan time.Time, 1)}
	v.seq++
	heap.Push(&v.sleepers, s)
	return s
}

// Sleep implements Clock. The clock treats the caller, normally a registered
// goroutine, as blocked for the duration.
func (v *Virtual) Sleep(d time.Duration) { v.sleep(context.Background(), d) }

// sleep is Sleep cut short by ctx (SleepCtx on a Virtual). A cancel takes
// the sleeper off the heap and returns the caller to the runnable count; a
// sleeper that fired first wins.
func (v *Virtual) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	v.mu.Lock()
	deadline := v.now.Add(d)
	if v.running == 1 &&
		(len(v.sleepers) == 0 || deadline.Before(v.sleepers[0].deadline)) {
		// Self-wake. The caller is the only runnable goroutine and its
		// deadline is strictly the earliest, so maybeAdvanceLocked
		// would pop this very sleeper first, move now to its
		// deadline, put running back to 1 and stop: do just that. An
		// equal deadline is not enough — the pending sleeper has the
		// lower seq and fires first. running == 1, not <= 1: after an
		// unregistered caller's own wake running is still <= 0 and the
		// loop keeps firing.
		v.now = deadline
		v.seq++
		v.mu.Unlock()
		return nil
	}
	var s *sleeper
	if n := len(v.free); n > 0 {
		s, v.free = v.free[n-1], v.free[:n-1]
		s.deadline, s.seq = deadline, v.seq
	} else {
		s = &sleeper{deadline: deadline, seq: v.seq, ch: make(chan time.Time, 1), blocksRunner: true}
	}
	v.seq++
	heap.Push(&v.sleepers, s)
	v.sleeping++
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	if done := ctx.Done(); done == nil {
		<-s.ch
	} else {
		select {
		case <-s.ch:
		case <-done:
			v.mu.Lock()
			if s.index >= 0 { // still pending
				heap.Remove(&v.sleepers, s.index)
				v.sleeping--
				v.running++
				v.free = append(v.free, s)
				v.mu.Unlock()
				return ctx.Err()
			}
			v.mu.Unlock()
			<-s.ch // fired first, and fireLocked made the caller runnable again
		}
	}
	v.mu.Lock()
	v.free = append(v.free, s)
	v.mu.Unlock()
	return nil
}

// Settle blocks the calling goroutine, which must be registered and runnable,
// until every other registered goroutine is parked: asleep on the clock or
// blocked. The caller stays runnable, so time does not move meanwhile: Settle
// returns once everything due at the present instant has run. One caller at a
// time.
func (v *Virtual) Settle() {
	v.mu.Lock()
	if v.running <= 1 {
		v.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	v.settled = ch
	v.mu.Unlock()
	<-ch
}

// NewTimer implements Clock. The timer fires when the clock reaches now+d.
// A timer alone does not mark the goroutine blocked; bracket the receive
// with Block/Unblock if needed.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	s := v.push(v.now.Add(d), 0)
	v.mu.Unlock()
	return &virtualTimer{clock: v, s: s}
}

type virtualTimer struct {
	clock *Virtual
	s     *sleeper
}

func (t *virtualTimer) C() <-chan time.Time { return t.s.ch }

func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.s.stopped || t.s.index < 0 {
		return false
	}
	t.s.stopped = true
	heap.Remove(&t.clock.sleepers, t.s.index)
	return true
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simtime: non-positive ticker period")
	}
	v.mu.Lock()
	s := v.push(v.now.Add(d), d)
	v.mu.Unlock()
	return &virtualTicker{clock: v, s: s}
}

type virtualTicker struct {
	clock *Virtual
	s     *sleeper
}

func (t *virtualTicker) C() <-chan time.Time { return t.s.ch }

func (t *virtualTicker) Stop() {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.s.stopped {
		return
	}
	t.s.stopped = true
	if t.s.index >= 0 {
		heap.Remove(&t.clock.sleepers, t.s.index)
	}
}

func (v *Virtual) fireLocked(s *sleeper) {
	select {
	case s.ch <- v.now:
	default: // slow consumer: drop, like time.Ticker
	}
	if s.period > 0 && !s.stopped {
		s.deadline = s.deadline.Add(s.period)
		s.seq = v.seq
		v.seq++
		heap.Push(&v.sleepers, s)
	}
	if s.blocksRunner {
		v.sleeping--
		v.running++ // the woken Sleep caller becomes runnable again
	}
}

// maybeAdvanceLocked advances to the next deadline when no registered
// goroutine is runnable. It keeps firing only while a Sleep-blocked
// goroutine is still pending: waking a Sleep is the only fire that returns
// control to a goroutine, so without one the loop would spin forever
// re-arming periodic tickers (and drag the clock to infinity). Timers and tickers due before the earliest pending Sleep
// still fire, in deadline order, on the way there.
func (v *Virtual) maybeAdvanceLocked() {
	if v.settled != nil && v.running <= 1 {
		close(v.settled)
		v.settled = nil
	}
	for v.running <= 0 && v.sleeping > 0 && v.sleepers.Len() > 0 {
		s := heap.Pop(&v.sleepers).(*sleeper)
		v.now = s.deadline
		v.fireLocked(s)
	}
}

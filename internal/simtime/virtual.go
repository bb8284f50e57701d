package simtime

import (
	"container/heap"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Time only moves when it
// is advanced, either explicitly via Advance/AdvanceTo, or — in
// auto-advance mode — when every goroutine registered with the clock is
// blocked in Sleep, at which point the clock jumps to the earliest pending
// deadline.
//
// Auto-advance mode implements the classic cooperative discrete-event
// simulation contract: goroutines participating in simulated time must be
// spawned with Go (or bracketed with AddRunner/DoneRunner), and goroutines
// that block on channels rather than on the clock must bracket the blocking
// region with Block/Unblock so the clock knows they are not runnable.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	sleepers sleeperHeap
	seq      uint64 // tiebreaker for equal deadlines: FIFO order
	auto     bool
	running  int // registered runnable goroutines (auto mode)
	// sleeping counts pending blocksRunner sleepers (auto mode). The
	// auto-advance loop only moves time while one exists: a Sleep waking
	// is the only way firing can hand control back to a goroutine, so
	// with none pending, advancing would just spin re-arming tickers —
	// timers and tickers alone never pull time forward.
	sleeping int
	// free holds Sleep's spent sleepers for reuse. Their channels never
	// leave Sleep, so a sleeper returned after its wake is safe to hand to
	// the next Sleep; the list grows on demand and is bounded by the peak
	// number of concurrent Sleep callers.
	free []*sleeper
}

// NewVirtual returns a manually advanced virtual clock starting at origin.
func NewVirtual(origin time.Time) *Virtual {
	return &Virtual{now: origin}
}

// NewVirtualAuto returns a virtual clock in auto-advance mode starting at
// origin.
func NewVirtualAuto(origin time.Time) *Virtual {
	return &Virtual{now: origin, auto: true}
}

type sleeper struct {
	deadline time.Time
	seq      uint64
	period   time.Duration // > 0 for tickers: re-armed on fire
	ch       chan time.Time
	stopped  bool
	index    int
	// blocksRunner marks sleepers created by Sleep in auto mode: firing
	// them returns a registered goroutine to the runnable pool.
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

// Go spawns fn as a goroutine registered with the clock (auto mode). The
// registration is released when fn returns.
func (v *Virtual) Go(fn func()) {
	v.AddRunner()
	go func() {
		defer v.DoneRunner()
		fn()
	}()
}

// AddRunner registers the calling (or an about-to-start) goroutine as
// runnable for auto-advance accounting.
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

// Sleep implements Clock. In auto mode the calling goroutine must be
// registered; the clock treats it as blocked for the duration.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	deadline := v.now.Add(d)
	if v.auto && v.running == 1 &&
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
		return
	}
	var s *sleeper
	if n := len(v.free); n > 0 {
		s, v.free = v.free[n-1], v.free[:n-1]
		s.deadline, s.seq = deadline, v.seq
	} else {
		s = &sleeper{deadline: deadline, seq: v.seq, ch: make(chan time.Time, 1)}
	}
	v.seq++
	heap.Push(&v.sleepers, s)
	if v.auto {
		s.blocksRunner = true
		v.sleeping++
		v.running--
		v.maybeAdvanceLocked()
	}
	v.mu.Unlock()
	<-s.ch
	v.mu.Lock()
	v.free = append(v.free, s)
	v.mu.Unlock()
}

// After implements Clock. The returned channel fires when the clock reaches
// now+d. In auto mode, After alone does not mark the goroutine blocked;
// bracket the receive with Block/Unblock if needed.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	s := v.push(v.now.Add(d), 0)
	v.mu.Unlock()
	return s.ch
}

// NewTimer implements Clock.
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

// Advance moves the clock forward by d, firing every timer, sleeper and
// ticker whose deadline falls within the window, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceToLocked(v.now.Add(d))
	v.mu.Unlock()
}

// AdvanceTo moves the clock forward to t (no-op if t is not after now).
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	v.advanceToLocked(t)
	v.mu.Unlock()
}

// PendingSleepers returns the number of unexpired timers/sleepers/tickers.
func (v *Virtual) PendingSleepers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sleepers.Len()
}

// NextDeadline returns the earliest pending deadline and whether one exists.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sleepers.Len() == 0 {
		return time.Time{}, false
	}
	return v.sleepers[0].deadline, true
}

func (v *Virtual) advanceToLocked(target time.Time) {
	for v.sleepers.Len() > 0 && !v.sleepers[0].deadline.After(target) {
		s := heap.Pop(&v.sleepers).(*sleeper)
		v.now = s.deadline
		v.fireLocked(s)
	}
	if target.After(v.now) {
		v.now = target
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
	if v.auto && s.blocksRunner {
		v.sleeping--
		v.running++ // the woken Sleep caller becomes runnable again
	}
}

// maybeAdvanceLocked advances to the next deadline when no registered
// goroutine is runnable (auto mode only). It keeps firing only while a
// Sleep-blocked goroutine is still pending: waking a Sleep is the only
// fire that returns control to a goroutine, so without one the loop
// would spin forever re-arming periodic tickers (and drag the clock to
// infinity). Timers and tickers due before the earliest pending Sleep
// still fire, in deadline order, on the way there.
func (v *Virtual) maybeAdvanceLocked() {
	if !v.auto {
		return
	}
	for v.running <= 0 && v.sleeping > 0 && v.sleepers.Len() > 0 {
		s := heap.Pop(&v.sleepers).(*sleeper)
		v.now = s.deadline
		v.fireLocked(s)
	}
}

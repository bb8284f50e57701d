package simtime

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Its reading moves only
// when every goroutine registered with the clock is parked and at least one
// of them sleeps on it: the clock then jumps to the earliest pending
// deadline, firing the timers and tickers due on the way in (deadline, seq)
// order. Timers and tickers alone never pull time forward.
//
// This is the classic cooperative discrete-event simulation contract, and a
// component that hands work between goroutines must keep the clock's
// accounting of who is runnable:
//
//   - Go, or AddRunner/DoneRunner around the goroutine's lifetime, registers
//     a goroutine that participates in simulated time. The spawner adds the
//     runner before the go statement, never the goroutine itself.
//   - A registered goroutine waits only through the clock: Sleep, SleepCtx,
//     Settle, a Latch's Wait or a Handoff's Recv. The waiter is parked on the
//     clock's books, and whoever wakes it issues its wake token first, so the
//     clock never advances while a wakeup is still in flight. The scheduler's
//     kick is the one exception: its runner token rides each kick.
//   - Or it gives its token back and parks in an Alarm's Wait, off the
//     clock's books: a running goroutine sets the alarm for it, the alarm
//     counts as a pending sleep until it fires, and the fire issues the
//     waiter's token before the wake.
//   - A value due later is a timed delivery (Handoff.SendAfter): it too
//     counts as a pending sleep, and its fire issues the parked waiter's
//     token before it hands over the value.
//
// The contract is asymmetric by design: a transient overcount (a wake token
// issued before the matching park lands) merely pauses advancement until
// the counts settle, while an undercount would let the clock advance
// concurrently with runnable goroutines and destroy determinism. Protocols
// built on the accounting therefore always issue the wake token before the
// wake itself.
//
// The reading is an offset from the origin that only the advance and the
// self-wake move, under the clock's lock; Now reads it without the lock.
// While a registered caller is runnable the reading cannot move, so Now
// gives it what it saw last; the atomic keeps unregistered readers
// race-free.
type Virtual struct {
	// The fields are laid out by cache line: Virtual is 192 bytes, a size
	// class, so every clock starts on a 64-byte line. The first line holds
	// all that a self-waking Sleep touches, the second what a parking one
	// adds, the third what is read far more than written. The park counters
	// share the second line with the rest of a park's writes: placed on a
	// line of their own they cost campaign_steady 4 % of its throughput on
	// a two-core host.
	mu      sync.Mutex
	at      atomic.Int64 // the reading, in nanoseconds since origin; written under mu
	seq     uint64       // tiebreaker for equal deadlines: FIFO order
	running int          // registered runnable goroutines
	// sleeping counts the pending sleepers whose fire wakes a goroutine:
	// a Sleep's, an Alarm's, a timed delivery's. The advance loop only
	// moves time while one exists: such a fire is the only way firing can
	// hand control back to a goroutine, so with none pending, advancing
	// would just spin re-arming tickers.
	sleeping int
	// sleepers is ordered by (deadline, seq); deadlines are offsets like at.
	sleepers sleeperHeap

	// parks counts the parks of registered goroutines by the wait they
	// parked in, an Alarm's by its fires; delivered counts the timed
	// deliveries fired. Parks reads them.
	parks     [parkKinds]uint64
	delivered uint64
	// free holds Sleep's spent sleepers for reuse. Their channels never
	// leave Sleep, so a sleeper returned after its wake is safe to hand to
	// the next Sleep; the list grows on demand and is bounded by the peak
	// number of concurrent Sleep callers.
	free []*sleeper

	origin time.Time
	// settled is the Settle caller's wake, closed once running is down to it.
	settled chan struct{}
	_       [32]byte // to 192 bytes
}

// NewVirtualAuto returns a virtual clock starting at origin.
func NewVirtualAuto(origin time.Time) *Virtual {
	return &Virtual{origin: origin}
}

// RunnersOf returns c's runnability accounting: c itself when it is a
// *Virtual, or nil for clocks that advance on their own (Real, Scaled).
// Go, AddRunner and DoneRunner accept that nil, so the same code runs
// unchanged on every clock.
func RunnersOf(c Clock) *Virtual {
	v, _ := c.(*Virtual)
	return v
}

type sleeper struct {
	deadline int64 // offset from origin, like Virtual.at
	seq      uint64
	period   time.Duration // > 0 for tickers: re-armed on fire
	ch       chan time.Time
	index    int
	stopped  bool
	kind     fireKind
	// to is a timed delivery's hand-off (kind fireDelivery).
	to deliverer
}

// fireKind says what a sleeper's fire does besides sending on its channel.
type fireKind uint8

const (
	fireTimer    fireKind = iota // a timer's or ticker's: nothing more
	fireSleep                    // a Sleep's: its caller becomes runnable again
	fireAlarm                    // an Alarm's: its follower gets a runner token
	fireDelivery                 // a Handoff.SendAfter's: its waiter gets a token and the value, not a tick
)

// deliverer is the hand-off a timed delivery fires into.
type deliverer interface {
	// deliverLocked puts the pending value in the waiter's slot and reports
	// whether it did; false means the waiter gave up first. The clock's
	// lock is held.
	deliverLocked() bool
}

// The waits a registered goroutine parks in, as Parks counts them.
const (
	parkSleep = iota
	parkRecv
	parkAlarm
	parkLatch
	parkKinds
)

// after is the deadline d past at, saturated at the largest offset so a
// far deadline cannot wrap to the front of the heap.
func after(at int64, d time.Duration) int64 {
	if t := at + int64(d); d <= 0 || t > at {
		return t
	}
	return math.MaxInt64
}

// sleeperHeap is a binary min-heap on (deadline, seq); every sleeper
// knows its index.
type sleeperHeap []*sleeper

func less(a, b *sleeper) bool {
	return a.deadline < b.deadline || a.deadline == b.deadline && a.seq < b.seq
}

func (h sleeperHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h sleeperHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !less(h[j], h[i]) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the i0-th sleeper down and reports whether it moved.
func (h sleeperHeap) down(i0 int) bool {
	i, n := i0, len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && less(h[r], h[j]) {
			j = r
		}
		if !less(h[j], h[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *sleeperHeap) push(s *sleeper) {
	s.index = len(*h)
	*h = append(*h, s)
	h.up(s.index)
}

// remove takes the i-th sleeper off the heap and returns it; remove(0)
// pops the earliest.
func (h *sleeperHeap) remove(i int) *sleeper {
	old := *h
	n := len(old) - 1
	s := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	s.index = -1
	return s
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	return v.origin.Add(time.Duration(v.at.Load()))
}

// Go spawns fn as a goroutine registered with the clock. The registration
// is released when fn returns. On a nil v it is a plain go statement.
func (v *Virtual) Go(fn func()) {
	if v == nil {
		go fn()
		return
	}
	v.AddRunner()
	go func() {
		defer v.DoneRunner()
		fn()
	}()
}

// AddRunner registers the calling (or an about-to-start) goroutine as
// runnable, or hands a parked one its wake token. It does nothing on a nil
// v.
func (v *Virtual) AddRunner() {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.running++
	v.mu.Unlock()
}

// DoneRunner deregisters a goroutine previously registered with AddRunner,
// or parks a registered one on the clock's books. It does nothing on a nil
// v.
func (v *Virtual) DoneRunner() {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// park is DoneRunner for a registered goroutine that parks in the wait
// kind names, counted for Parks.
func (v *Virtual) park(kind int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.parks[kind]++
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// Parks returns how many times registered goroutines have parked on v, by
// the wait they parked in: Sleep (SleepCtx's included, a self-wake not),
// a Handoff's Recv, an Alarm's Wait (counted when the alarm fires) and a
// Latch's Wait; and how many timed deliveries (Handoff.SendAfter) have
// fired. The counts only grow: a span's are the difference of two reads.
func (v *Virtual) Parks() (sleep, recv, alarm, latch, delivered uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.parks[parkSleep], v.parks[parkRecv], v.parks[parkAlarm], v.parks[parkLatch], v.delivered
}

func (v *Virtual) push(d, period time.Duration) *sleeper {
	s := &sleeper{deadline: after(v.at.Load(), d), seq: v.seq, period: period, ch: make(chan time.Time, 1)}
	v.seq++
	v.sleepers.push(s)
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
	deadline := after(v.at.Load(), d)
	if v.running == 1 &&
		(len(v.sleepers) == 0 || deadline < v.sleepers[0].deadline) {
		// Self-wake. The caller is the only runnable goroutine and its
		// deadline is strictly the earliest, so maybeAdvanceLocked
		// would pop this very sleeper first, move the reading to its
		// deadline, put running back to 1 and stop: do just that. An
		// equal deadline is not enough — the pending sleeper has the
		// lower seq and fires first. running == 1, not <= 1: after an
		// unregistered caller's own wake running is still <= 0 and the
		// loop keeps firing.
		v.at.Store(deadline)
		v.seq++
		v.mu.Unlock()
		return nil
	}
	var s *sleeper
	if n := len(v.free); n > 0 {
		s, v.free = v.free[n-1], v.free[:n-1]
		s.deadline, s.seq = deadline, v.seq
	} else {
		s = &sleeper{deadline: deadline, seq: v.seq, ch: make(chan time.Time, 1), kind: fireSleep}
	}
	v.seq++
	v.sleepers.push(s)
	v.sleeping++
	v.parks[parkSleep]++
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
				v.sleepers.remove(s.index)
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
// waiting through it. The caller stays runnable, so time does not move meanwhile: Settle
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
// A timer alone does not park its reader: a registered goroutine that
// receives from it still counts as runnable.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	s := v.push(d, 0)
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
	t.clock.sleepers.remove(t.s.index)
	return true
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simtime: non-positive ticker period")
	}
	v.mu.Lock()
	s := v.push(d, d)
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
		t.clock.sleepers.remove(t.s.index)
	}
}

func (v *Virtual) fireLocked(s *sleeper) {
	if s.kind == fireDelivery {
		v.sleeping--
		v.delivered++
		if s.to.deliverLocked() {
			v.running++ // the waiter's token; it cannot run before the lock is released
		}
		return
	}
	select {
	case s.ch <- v.Now():
	default: // slow consumer: drop, like time.Ticker
	}
	if s.period > 0 && !s.stopped {
		s.deadline = after(s.deadline, s.period)
		s.seq = v.seq
		v.seq++
		v.sleepers.push(s)
	}
	if s.kind != fireTimer {
		if s.kind == fireAlarm {
			v.parks[parkAlarm]++
		}
		v.sleeping--
		v.running++ // the woken Sleep caller or Alarm follower becomes runnable again
	}
}

// setLocked puts s on the heap d from now as a pending sleep, the way an
// Alarm's Set and a timed delivery are armed, and returns its seq. v.mu is
// held.
func (v *Virtual) setLocked(s *sleeper, d time.Duration) uint64 {
	s.deadline, s.seq = after(v.at.Load(), d), v.seq
	v.seq++
	v.sleepers.push(s)
	v.sleeping++
	return s.seq
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
	for v.running <= 0 && v.sleeping > 0 && len(v.sleepers) > 0 {
		s := v.sleepers.remove(0)
		v.at.Store(s.deadline)
		v.fireLocked(s)
	}
}

package scheduler

import (
	"fmt"
	"time"

	"repro/internal/platform"
)

// Policy names accepted by PolicyByName. The default ("", policyStrict)
// preserves the seed semantics the equivalence suite pins.
const (
	// policyStrict is strict-priority FIFO with head-of-line blocking: a
	// blocked head is never bypassed, so services cannot be starved by a
	// stream of small tasks (§III readiness over utilization).
	policyStrict = "strict"
	// policyBackfill grants the highest-priority *fitting* request when
	// the head is blocked, bounded by a starvation limit (at most K
	// bypasses or T of scheduler-clock time per blocked head).
	policyBackfill = "backfill"
	// policyBestFit is policyBackfill with best-fit node selection: every
	// placement picks the fitting node with the least leftover capacity,
	// minimizing fragmentation on heterogeneous node pools.
	policyBestFit = "best-fit"
)

// Policy decides, one grant at a time, which waiting request the
// scheduler places next and on which node. Grant is called with the
// scheduler lock held, from the scheduler goroutine only; implementations
// may keep per-scheduler state across calls (the backfill policies track
// how often the current head has been bypassed) but must not block or
// call back into the Scheduler. A Policy instance must not be shared
// between schedulers — construct a fresh one per Scheduler.
type Policy interface {
	// Name returns the policy identifier (one of the Policy* constants
	// for the built-in policies).
	Name() string
	// Grant selects the next grant from the wait pool exposed by p: it
	// returns the pool position of the chosen request together with a live
	// allocation for it, or a nil allocation when nothing may be granted
	// now (the scheduler then waits for the next submit or release).
	Grant(p *Pool) (pos int, alloc *platform.Allocation)
}

// Pool is a Policy's window into the scheduler during one Grant call: the
// wait pool, the capacity index and the scheduler clock. It is only valid
// for the duration of that call.
//
// Pool positions index the wait pool's backing array. Position 0 is the
// head — the request strict priority order would grant next; the
// remaining positions hold the other waiting requests in no particular
// order (binary-heap layout), so a policy that needs strict order among
// them asks FirstFit rather than assume sortedness.
type Pool struct{ s *Scheduler }

// Len returns the number of waiting requests.
func (p *Pool) Len() int { return p.s.waiting.len() }

// Seq returns the submission sequence number of the request at position
// i. Sequence numbers are unique and increase in submission order, so
// they identify a particular head across Grant calls.
func (p *Pool) Seq(i int) uint64 { return p.s.waiting.items[i].seq }

// FirstFit returns the position of the request that strict (priority
// desc, submission asc) order ranks first among the non-head requests
// whose demand currently fits free capacity, or -1 when none does — the
// backfill policies' bypass query. It walks the wait pool's per-priority
// bucket index in strict order and stops at the first fit, so a grant
// near the front of a deep pool no longer pays a capacity probe per
// waiting request.
func (p *Pool) FirstFit() int {
	return p.s.waiting.firstFit(func(i int) bool { return p.s.fits(p.s.waiting.items[i].req) })
}

// Place attempts first-fit placement (lowest fitting node index) of the
// request at position i, returning nil when no node currently fits it.
func (p *Pool) Place(i int) *platform.Allocation {
	return p.s.tryPlace(p.s.waiting.items[i].req, false)
}

// PlaceBestFit places the request at position i on the fitting node with
// the least leftover capacity instead of the lowest index, returning nil
// when no node fits. The query runs on the capacity index's min-leftover
// augmentation — O(log nodes) on pools with near-uniform residuals,
// degrading toward the exhaustive fitting-node scan only when leftover
// scores are highly diverse — so fragmentation avoidance on
// heterogeneous pools no longer carries a per-grant cost premium.
func (p *Pool) PlaceBestFit(i int) *platform.Allocation {
	return p.s.tryPlace(p.s.waiting.items[i].req, true)
}

// Now returns the scheduler clock's current time. Schedulers created
// without WithClock read the wall clock.
func (p *Pool) Now() time.Time { return p.s.clock.Now() }

// PolicyByName returns a fresh instance of the named built-in policy.
// The empty name selects policyStrict; the backfill policies take the
// default starvation bounds. This is the config surface of every
// name-threaded selection point (session, pilot, CLI flags).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", policyStrict:
		return Strict(), nil
	case policyBackfill:
		return Backfill(BackfillConfig{}), nil
	case policyBestFit:
		return BestFit(BackfillConfig{}), nil
	default:
		return nil, fmt.Errorf("scheduler: unknown policy %q (want %s|%s|%s)",
			name, policyStrict, policyBackfill, policyBestFit)
	}
}

// --- strict ------------------------------------------------------------------

type strictPolicy struct{}

// Strict returns the default policy: strict priority order, first-fit
// placement, no backfill. Its grant sequence is pinned byte-for-byte to
// the seed scheduler by TestIndexedPlacementMatchesSeedFirstFit.
func Strict() Policy { return strictPolicy{} }

// Name implements Policy.
func (strictPolicy) Name() string { return policyStrict }

// Grant implements Policy: place the head or nothing.
func (strictPolicy) Grant(p *Pool) (int, *platform.Allocation) {
	if p.Len() == 0 {
		return 0, nil
	}
	return 0, p.Place(0)
}

// --- backfill ----------------------------------------------------------------

// Starvation-bound defaults for the backfill policies.
const (
	// DefaultMaxBypass is the default K: how many times one blocked head
	// may be overtaken before backfill suspends.
	DefaultMaxBypass = 16
	// defaultMaxDelay is the default T: how long (scheduler-clock time) a
	// head may stay blocked while being overtaken before backfill
	// suspends.
	defaultMaxDelay = 30 * time.Second
)

// BackfillConfig bounds how far the backfill policies may starve a
// blocked head. Once either bound trips, the policy degenerates to strict
// behaviour until that head is granted, so a blocked service's wait is
// bounded by K small-task grants or T seconds — the §III readiness
// guarantee survives backfill.
type BackfillConfig struct {
	// MaxBypass is K, the bypass-count bound per blocked head. Zero
	// selects DefaultMaxBypass; negative disables the count bound.
	MaxBypass int
	// MaxDelay is T, the blocked-duration bound per head, measured on the
	// scheduler clock. Zero selects defaultMaxDelay; negative disables
	// the time bound.
	MaxDelay time.Duration
}

func (c BackfillConfig) resolved() BackfillConfig {
	if c.MaxBypass == 0 {
		c.MaxBypass = DefaultMaxBypass
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = defaultMaxDelay
	}
	return c
}

// backfillPolicy implements capacity-aware backfill: when the head does
// not fit, grant the highest-priority fitting request instead, within the
// starvation bound. bestFit switches node selection from first-fit to
// least-leftover for every placement.
type backfillPolicy struct {
	cfg     BackfillConfig
	bestFit bool

	// heads carries the starvation accounting per request (keyed by
	// submission seq) for every request that has been observed blocked at
	// the pool head. Keying by request — not by "whoever sits at position
	// 0 right now" — makes the K/T bound stick across head churn: a
	// blocked request temporarily displaced by a higher-priority arrival
	// returns to the head with its spent bypass budget, not a fresh one.
	// Entries are dropped when their request is granted, so the map is
	// bounded by the number of waiting once-blocked requests.
	heads map[uint64]*headState
}

// headState is one blocked request's starvation accounting.
type headState struct {
	bypasses     int
	blockedSince time.Time
}

// Backfill returns a capacity-aware backfill policy: strict priority
// order first, but a blocked head is bypassed by the highest-priority
// request that fits the currently free capacity, at most cfg.MaxBypass
// times or for cfg.MaxDelay of scheduler-clock time per head.
func Backfill(cfg BackfillConfig) Policy {
	return &backfillPolicy{cfg: cfg.resolved(), heads: make(map[uint64]*headState)}
}

// BestFit returns the backfill policy with best-fit node selection: every
// placement (head or backfill) picks the fitting node with the least
// leftover capacity, keeping large nodes free for large requests on
// heterogeneous pools.
func BestFit(cfg BackfillConfig) Policy {
	return &backfillPolicy{cfg: cfg.resolved(), bestFit: true, heads: make(map[uint64]*headState)}
}

// Name implements Policy.
func (b *backfillPolicy) Name() string {
	if b.bestFit {
		return policyBestFit
	}
	return policyBackfill
}

func (b *backfillPolicy) place(p *Pool, i int) *platform.Allocation {
	if b.bestFit {
		return p.PlaceBestFit(i)
	}
	return p.Place(i)
}

// Grant implements Policy.
func (b *backfillPolicy) Grant(p *Pool) (int, *platform.Allocation) {
	if p.Len() == 0 {
		return 0, nil
	}
	if alloc := b.place(p, 0); alloc != nil {
		delete(b.heads, p.Seq(0)) // head granted: drop its accounting
		return 0, alloc
	}

	// The head is blocked. Arm its starvation accounting on the first
	// sighting; a request already seen blocked keeps its spent budget.
	hs := b.heads[p.Seq(0)]
	if hs == nil {
		hs = &headState{blockedSince: p.Now()}
		b.heads[p.Seq(0)] = hs
	}
	if b.cfg.MaxBypass > 0 && hs.bypasses >= b.cfg.MaxBypass {
		return 0, nil // bound tripped: strict until this head is granted
	}
	if b.cfg.MaxDelay > 0 && p.Now().Sub(hs.blockedSince) >= b.cfg.MaxDelay {
		return 0, nil
	}

	// Backfill scan: the highest-priority fitting request among the rest.
	// FirstFit walks the pool's per-priority bucket index in strict order
	// and stops at its first fit — sublinear when a fitting request ranks
	// early, instead of the pre-index O(waiting · log nodes) argmin.
	best := p.FirstFit()
	if best < 0 {
		return 0, nil
	}
	hs.bypasses++
	delete(b.heads, p.Seq(best)) // the backfilled request may have head history
	return best, b.place(p, best)
}

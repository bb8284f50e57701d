package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
)

// DialFn connects to one concrete endpoint. The session supplies an
// implementation that dispatches on the endpoint protocol (msgq vs rest),
// so a Balancer is transport-agnostic.
type DialFn func(ep proto.Endpoint) (Caller, error)

// defaultRetries bounds how many times one Infer call re-resolves after a
// failure before surfacing the error. Each retry requires the registry to
// publish a generation newer than the one that failed, so the bound is on
// failovers survived per request, not on busy-loop attempts.
const defaultRetries = 3

// defaultLoadHorizon is the load-report staleness horizon balancing
// clients apply to members with no in-process server (their load comes
// from ReportLoad): reports older than this are treated as no information
// and load-aware pickers fall back to blind rotation. A member published
// by an in-process instance is read live and never goes stale.
const defaultLoadHorizon = 10 * time.Second

// BalancerOptions tune a Balancer. The zero value selects a
// power-of-two-choices picker with seed 0 and no clock (every load report
// counts as stale; live server reads still count).
type BalancerOptions struct {
	// Picker selects among the group candidates per request. nil selects
	// power-of-two-choices seeded with 0.
	Picker loadbal.Picker
	// Now supplies the current session-clock time for the staleness
	// check. nil treats every load report as stale; a member read live
	// from its in-process server needs no timebase.
	Now func() time.Time
}

// Balancer is the inference client for a stable service UID, bound to
// the UID instead of a raw endpoint. The UID may be backed by several
// replicas: the base instance plus whatever replica members the session
// autoscaler currently lists in the EndpointRegistry group. Each request
// picks one member and resolves that member's UID through the registry:
// while the cached generation is current the cached connection is reused
// (one registry read per request), and when a request fails — or the
// registry reports a newer generation — the balancer drops the stale
// connection, awaits the re-publication, redials, and retries on the same
// member. This is the client half of failure-driven service re-placement:
// a pilot death re-publishes the service's endpoint under the same UID
// with a bumped generation, and balancing clients follow it while
// endpoint-caching clients keep erroring into the dead address.
//
// The pick path is constant-time and contention-free: the registry keeps
// the group membership in an atomically-swapped immutable view holding
// entry pointers, each probe reads the member's server queue counters (or
// a reported gauge) through atomics, and the default power-of-two-choices
// picker probes exactly two members per request from a seeded splitmix64
// walker. No lock is taken and nothing is allocated between a request
// arriving and its target UID being known, however many replicas the
// group holds. When either probe has no live server and a load report
// older than the configured horizon, the pick falls back to blind
// round-robin rather than trusting dead information. With no members
// every request goes to the base UID.
type Balancer struct {
	reg  *EndpointRegistry
	uid  string
	dial DialFn
	opts BalancerOptions // Picker defaulted
	// retries bounds re-resolutions per Infer (defaultRetries).
	retries int
	// entry is the pinned registry entry of the logical UID; its group
	// field holds the current immutable balancing view.
	entry *endpointEntry

	// conns is the copy-on-write member-connection map, never nil: reads
	// are one atomic load, misses take mu and swap in a copy that holds the
	// new member and drops the members the registry has withdrawn, so it
	// holds the base UID and the members still in service, not every member
	// ever picked.
	conns      atomic.Pointer[map[string]*memberConn]
	mu         sync.Mutex
	closed     atomic.Bool
	closing    context.Context // cancelled by Close: ends every await
	stop       context.CancelFunc
	reresolved atomic.Int64
}

// memberConn is the cached connection to one member UID and the
// registry generation it was dialled for. A retired one (its member
// withdrawn, or the balancer closed) holds nothing for good.
type memberConn struct {
	mu      sync.Mutex
	cur     Caller
	gen     uint64
	retired bool
}

// retire closes m's connection and keeps it from holding another.
func (m *memberConn) retire() {
	m.mu.Lock()
	old := m.cur
	m.cur, m.retired = nil, true
	m.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// NewBalancer returns a Balancer for the logical service uid.
func NewBalancer(reg *EndpointRegistry, uid string, dial DialFn, opts BalancerOptions) (*Balancer, error) {
	if reg == nil || dial == nil {
		return nil, fmt.Errorf("service: balancer %s needs a registry and a dial function", uid)
	}
	if opts.Picker == nil {
		opts.Picker = loadbal.NewP2C(0)
	}
	b := &Balancer{reg: reg, uid: uid, dial: dial, opts: opts, retries: defaultRetries, entry: reg.groupEntry(uid)}
	b.closing, b.stop = context.WithCancel(context.Background())
	b.conns.Store(&map[string]*memberConn{})
	return b, nil
}

// NewResolver returns a Balancer for uid with default options, for a
// service that is not autoscaled: every request goes to uid itself.
// dial must not be nil; retries ≤ 0 selects defaultRetries.
func NewResolver(reg *EndpointRegistry, uid string, dial DialFn, retries int) (*Balancer, error) {
	b, err := NewBalancer(reg, uid, dial, BalancerOptions{})
	if err == nil && retries > 0 {
		b.retries = retries
	}
	return b, err
}

// Infer implements Caller: it routes one request to the picked group
// member and blocks for its reply. The happy path costs one registry
// generation check over a plain Caller; on an endpoint failure it parks
// in AwaitNewer until the failover re-publication lands (bounded by ctx,
// Close and the retry budget) and re-sends the prompt as a new request to
// the member's new endpoint. A request that failed mid-flight on a dying
// instance may therefore run on both instances. Application-level errors
// from a live, current-generation service (a full queue, a model error)
// surface immediately — they are the service answering, not the endpoint
// dying, and no re-publication would change the outcome.
func (b *Balancer) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	uid := b.Pick()
	m := b.member(uid)
	var lastErr error
	for attempt := 0; attempt <= b.retries; attempt++ {
		cl, gen, err := b.client(ctx, uid, m)
		if err != nil {
			return proto.InferenceReply{}, metrics.Breakdown{}, err
		}
		reply, bd, err := cl.Infer(ctx, prompt, maxTokens)
		if err == nil {
			return reply, bd, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		if !b.stale(uid, err, gen) {
			break
		}
		if attempt == b.retries {
			// Budget exhausted: no further attempt will run, so parking
			// for the next publication would be dead work (and could
			// block a background-context caller indefinitely).
			break
		}
		// The endpoint failed (or went stale) at generation gen: drop the
		// connection and wait for a strictly newer publication before
		// retrying, so a dead endpoint is never redialed and a hard
		// service error (withdrawn UID) surfaces instead of looping. The
		// wait's own verdict wins over the transport error: ErrWithdrawn
		// means "gone for good", ctx.Err() means "caller gave up" — both
		// more actionable than the endpoint failure that preceded them.
		b.evict(m, gen)
		if _, _, werr := b.await(ctx, uid, gen); werr != nil {
			lastErr = fmt.Errorf("%w (endpoint failed first: %v)", werr, lastErr)
			break
		}
	}
	return proto.InferenceReply{}, metrics.Breakdown{}, lastErr
}

// Pick returns the member UID the next request goes to: one atomic view
// load plus the picker's probes (two for power-of-two-choices), zero
// locks and zero allocations regardless of group size. With no replica
// members it returns the base UID without consulting the picker. The
// picker reads members' servers live, and load reports under
// defaultLoadHorizon as the staleness bound.
func (b *Balancer) Pick() string {
	view := b.entry.group.Load()
	if view == nil || view.Len() <= 1 {
		return b.uid
	}
	minAt := int64(math.MaxInt64) // no timebase: every report is stale
	if b.opts.Now != nil {
		minAt = b.opts.Now().UnixNano() - int64(defaultLoadHorizon)
	}
	return view.UID(b.opts.Picker.PickIndex(view, minAt))
}

// member returns (creating on first use) the connection cache of uid.
// One made after Close holds nothing: client refuses to fill it. Making
// one retires the caches of the members the registry has withdrawn.
func (b *Balancer) member(uid string) *memberConn {
	if m, ok := (*b.conns.Load())[uid]; ok {
		return m
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := *b.conns.Load()
	if m, ok := cur[uid]; ok {
		return m
	}
	m := &memberConn{}
	next := map[string]*memberConn{uid: m}
	for k, v := range cur {
		if k != b.uid && b.reg.withdrawn(k) {
			v.retire()
			continue
		}
		next[k] = v
	}
	b.conns.Store(&next)
	return m
}

func (b *Balancer) errClosed() error { return fmt.Errorf("service: balancer %s closed", b.uid) }

// stale reports whether a failed request at generation gen should trigger
// re-resolution: the transport says the endpoint is gone, the registry
// already holds a different generation, or the entry is suspended (a
// failover is in flight). A live entry at the same generation returning
// an application error is NOT stale — parking would wait for a
// publication that will never come.
func (b *Balancer) stale(uid string, err error, gen uint64) bool {
	if errors.Is(err, msgq.ErrClosed) || errors.Is(err, msgq.ErrUnknownAddr) {
		return true
	}
	if _, liveGen, ok := b.reg.Resolve(uid); !ok || liveGen != gen {
		return true
	}
	return false
}

// client returns a Caller connected to the current endpoint of uid,
// redialing when the registry holds a newer generation than the cached
// connection m (or none is cached yet). The first resolution waits for
// the endpoint to be published at all.
func (b *Balancer) client(ctx context.Context, uid string, m *memberConn) (Caller, uint64, error) {
	if b.closed.Load() {
		return nil, 0, b.errClosed()
	}
	m.mu.Lock()
	cur, gen := m.cur, m.gen
	m.mu.Unlock()

	ep, liveGen, ok := b.reg.Resolve(uid)
	if !ok {
		// Not live right now: first call before publication, or a failover
		// in flight. Park until the (re-)publication lands.
		var err error
		ep, liveGen, err = b.await(ctx, uid, gen)
		if err != nil {
			return nil, 0, err
		}
	}
	if cur != nil && gen == liveGen {
		return cur, gen, nil
	}

	cl, err := b.dial(ep)
	if err != nil {
		return nil, 0, err
	}
	m.mu.Lock()
	if b.closed.Load() || m.retired {
		m.mu.Unlock()
		_ = cl.Close()
		if !b.closed.Load() {
			return nil, 0, fmt.Errorf("%w: %s", ErrWithdrawn, uid)
		}
		return nil, 0, b.errClosed()
	}
	if m.cur != nil && m.gen >= liveGen {
		// another goroutine installed an equal-or-newer connection while
		// we dialed: keep the fresher one, never regress the cache
		cl2, gen2 := m.cur, m.gen
		m.mu.Unlock()
		_ = cl.Close()
		return cl2, gen2, nil
	}
	old := m.cur
	m.cur, m.gen = cl, liveGen
	if gen != 0 || old != nil {
		b.reresolved.Add(1)
	}
	m.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return cl, liveGen, nil
}

// evict drops m's cached connection if it still carries generation gen.
func (b *Balancer) evict(m *memberConn, gen uint64) {
	m.mu.Lock()
	var old Caller
	if m.cur != nil && m.gen == gen {
		old = m.cur
		m.cur = nil
	}
	m.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// await parks in AwaitNewer until uid is published at a generation newer
// than after, ctx ends or the balancer closes; a close reports itself
// rather than the cancellation it caused.
func (b *Balancer) await(ctx context.Context, uid string, after uint64) (proto.Endpoint, uint64, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(b.closing, cancel)()
	ep, gen, err := b.reg.AwaitNewer(ctx, uid, after)
	if err != nil && b.closed.Load() {
		err = b.errClosed()
	}
	return ep, gen, err
}

// Reresolved counts how many times a member connection was dropped for a
// stale generation and the member's endpoint re-resolved (0 while no
// failover happened).
func (b *Balancer) Reresolved() int { return int(b.reresolved.Load()) }

// Close implements Caller: it drops every member connection, ends every
// wait for a publication and refuses further calls.
func (b *Balancer) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Swap(true) {
		return nil
	}
	b.stop()
	for _, m := range *b.conns.Load() {
		m.retire()
	}
	return nil
}

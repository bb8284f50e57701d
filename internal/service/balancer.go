package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// DefaultLoadHorizon is the load-report staleness horizon balancing
// clients apply when the session does not configure one: reports older
// than this are treated as no information and load-aware pickers fall
// back to blind rotation. 10s comfortably covers the autoscaler's 2s
// default report cadence and a campaign reporter's coarser intervals.
const DefaultLoadHorizon = 10 * time.Second

// BalancerOptions tune a Balancer or a Pool. The zero value selects a
// power-of-two-choices picker with seed 0, the default staleness horizon,
// and no clock (every report counts as stale, so picks degrade to
// rotation until a Now source is supplied).
type BalancerOptions struct {
	// Picker selects among the group candidates per request. nil selects
	// power-of-two-choices seeded with Seed.
	Picker loadbal.Picker
	// Seed drives the default picker's probe sequence.
	Seed uint64
	// Now supplies the current session-clock time for the staleness
	// check. nil disables load awareness: with no timebase every report
	// is stale and load-aware pickers fall back to rotation.
	Now func() time.Time
	// Horizon is the load-report staleness bound (default
	// DefaultLoadHorizon).
	Horizon time.Duration
	// Retries bounds re-resolutions per request in the member resolvers
	// (default DefaultResolverRetries).
	Retries int
}

// members is what a Balancer and a Pool share: the picker with its
// staleness horizon, and the lazily-filled per-UID Resolver cache every
// picked request is forwarded through.
type members struct {
	reg   *EndpointRegistry
	owner string // names the client in the closed error
	dial  DialFn
	opts  BalancerOptions // Picker and Horizon defaulted

	// res is the copy-on-write member-resolver map, never nil: reads are
	// one atomic load, misses take mu and swap in a grown copy.
	res    atomic.Pointer[map[string]*Resolver]
	mu     sync.Mutex
	closed atomic.Bool
}

// init validates the shared inputs and applies the option defaults.
func (m *members) init(reg *EndpointRegistry, owner string, dial DialFn, opts BalancerOptions) error {
	if reg == nil || dial == nil {
		return fmt.Errorf("service: %s needs a registry and a dial function", owner)
	}
	if opts.Picker == nil {
		opts.Picker = loadbal.NewP2C(opts.Seed)
	}
	if opts.Horizon <= 0 {
		opts.Horizon = DefaultLoadHorizon
	}
	m.reg, m.owner, m.dial, m.opts = reg, owner, dial, opts
	m.res.Store(&map[string]*Resolver{})
	return nil
}

// pick runs the picker over view with the current staleness horizon.
func (m *members) pick(view loadbal.LoadView) int {
	minAt := int64(math.MaxInt64) // no timebase: every report is stale
	if m.opts.Now != nil {
		minAt = m.opts.Now().UnixNano() - int64(m.opts.Horizon)
	}
	return m.opts.Picker.PickIndex(view, minAt)
}

// infer forwards one request through uid's Resolver.
func (m *members) infer(ctx context.Context, uid, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	r, err := m.resolver(uid)
	if err != nil {
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	return r.Infer(ctx, prompt, maxTokens)
}

// resolver returns (creating on first use) the member's Resolver.
func (m *members) resolver(uid string) (*Resolver, error) {
	if r, ok := (*m.res.Load())[uid]; ok {
		return r, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return nil, fmt.Errorf("service: %s closed", m.owner)
	}
	cur := *m.res.Load()
	if r, ok := cur[uid]; ok {
		return r, nil
	}
	r, err := NewResolver(m.reg, uid, m.dial, m.opts.Retries)
	if err != nil {
		return nil, err
	}
	next := map[string]*Resolver{uid: r}
	for k, v := range cur {
		next[k] = v
	}
	m.res.Store(&next)
	return r, nil
}

// reresolved sums the re-resolution counts of every member resolver.
func (m *members) reresolved() int {
	n := 0
	for _, r := range *m.res.Load() {
		n += r.Reresolved()
	}
	return n
}

// close closes every member resolver; later resolver calls fail.
func (m *members) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed.Swap(true) {
		for _, r := range *m.res.Load() {
			_ = r.Close()
		}
	}
	return nil
}

// Balancer is an inference client for a logical service UID that may be
// backed by several replicas: the base instance plus whatever replica
// members the session autoscaler currently lists in the EndpointRegistry
// group. Each request picks one member and delegates to that member's
// Resolver — so every replica request still gets the resolvers'
// generation-aware failover machinery. With no members the Balancer
// degrades to a plain Resolver on the base UID.
//
// The pick path is constant-time and contention-free: the registry keeps
// the group membership in an atomically-swapped immutable view holding
// entry pointers, the per-entry load gauges are atomics, and the default
// power-of-two-choices picker probes exactly two members per request
// from a seeded splitmix64 walker. No lock is taken and nothing is
// allocated between a request arriving and its target UID being known,
// however many replicas the group holds. When either probe's load report
// is older than the configured horizon the pick falls back to blind
// round-robin rather than trusting dead information.
type Balancer struct {
	m   members
	uid string
	// entry is the pinned registry entry of the logical UID; its group
	// field holds the current immutable balancing view.
	entry *endpointEntry
}

// NewBalancer returns a Balancer for the logical service uid.
func NewBalancer(reg *EndpointRegistry, uid string, dial DialFn, opts BalancerOptions) (*Balancer, error) {
	b := &Balancer{uid: uid}
	if err := b.m.init(reg, "balancer "+uid, dial, opts); err != nil {
		return nil, err
	}
	b.entry = reg.groupEntry(uid)
	return b, nil
}

// Infer routes one request to the picked group member and blocks for its
// reply.
func (b *Balancer) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	return b.m.infer(ctx, b.Pick(), prompt, maxTokens)
}

// Pick returns the member UID the next request goes to: one atomic view
// load plus the picker's probes (two for power-of-two-choices), zero
// locks and zero allocations regardless of group size. With no replica
// members it returns the base UID without consulting the picker.
func (b *Balancer) Pick() string {
	view := b.entry.group.Load()
	if view == nil || view.Len() <= 1 {
		return b.uid
	}
	return view.UID(b.m.pick(view))
}

// Reresolved sums the re-resolution counts of every member resolver.
func (b *Balancer) Reresolved() int { return b.m.reresolved() }

// Close closes every member resolver. Subsequent Infer calls fail.
func (b *Balancer) Close() error { return b.m.close() }

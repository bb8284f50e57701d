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

// defaultLoadHorizon is the load-report staleness horizon balancing
// clients apply: reports older than this are treated as no information and
// load-aware pickers fall back to blind rotation. 10s comfortably covers
// the autoscaler's 2s default report cadence and a campaign reporter's
// coarser intervals.
const defaultLoadHorizon = 10 * time.Second

// BalancerOptions tune a Balancer. The zero value selects a
// power-of-two-choices picker with seed 0 and no clock (every report
// counts as stale, so picks degrade to rotation until a Now source is
// supplied).
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
	reg  *EndpointRegistry
	uid  string
	dial DialFn
	opts BalancerOptions // Picker defaulted
	// entry is the pinned registry entry of the logical UID; its group
	// field holds the current immutable balancing view.
	entry *endpointEntry

	// res is the copy-on-write member-resolver map, never nil: reads are
	// one atomic load, misses take mu and swap in a grown copy.
	res    atomic.Pointer[map[string]*Resolver]
	mu     sync.Mutex
	closed atomic.Bool
}

// NewBalancer returns a Balancer for the logical service uid.
func NewBalancer(reg *EndpointRegistry, uid string, dial DialFn, opts BalancerOptions) (*Balancer, error) {
	if reg == nil || dial == nil {
		return nil, fmt.Errorf("service: balancer %s needs a registry and a dial function", uid)
	}
	if opts.Picker == nil {
		opts.Picker = loadbal.NewP2C(opts.Seed)
	}
	b := &Balancer{reg: reg, uid: uid, dial: dial, opts: opts, entry: reg.groupEntry(uid)}
	b.res.Store(&map[string]*Resolver{})
	return b, nil
}

// Infer routes one request to the picked group member and blocks for its
// reply.
func (b *Balancer) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	r, err := b.resolver(b.Pick())
	if err != nil {
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	return r.Infer(ctx, prompt, maxTokens)
}

// Pick returns the member UID the next request goes to: one atomic view
// load plus the picker's probes (two for power-of-two-choices), zero
// locks and zero allocations regardless of group size. With no replica
// members it returns the base UID without consulting the picker. The
// picker reads load reports under defaultLoadHorizon as the staleness
// bound.
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

// resolver returns (creating on first use) the member's Resolver.
func (b *Balancer) resolver(uid string) (*Resolver, error) {
	if r, ok := (*b.res.Load())[uid]; ok {
		return r, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		return nil, fmt.Errorf("service: balancer %s closed", b.uid)
	}
	cur := *b.res.Load()
	if r, ok := cur[uid]; ok {
		return r, nil
	}
	r, err := NewResolver(b.reg, uid, b.dial, defaultResolverRetries)
	if err != nil {
		return nil, err
	}
	next := map[string]*Resolver{uid: r}
	for k, v := range cur {
		next[k] = v
	}
	b.res.Store(&next)
	return r, nil
}

// Reresolved sums the re-resolution counts of every member resolver.
func (b *Balancer) Reresolved() int {
	n := 0
	for _, r := range *b.res.Load() {
		n += r.Reresolved()
	}
	return n
}

// Close closes every member resolver. Subsequent Infer calls fail.
func (b *Balancer) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed.Swap(true) {
		for _, r := range *b.res.Load() {
			_ = r.Close()
		}
	}
	return nil
}

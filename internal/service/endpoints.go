package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// ErrWithdrawn is returned by the EndpointRegistry's Await* calls when the
// service was withdrawn for good (terminated, or failed without a
// re-placement) — no newer endpoint will ever arrive, so waiting on is
// pointless.
var ErrWithdrawn = errors.New("service: endpoint withdrawn")

// ErrStaleIncarnation is returned by Publish when the endpoint's session
// incarnation is below the registry fence: the publisher is a zombie from
// before a crash recovery and must not clobber its re-placed successor.
var ErrStaleIncarnation = errors.New("service: stale-incarnation publish rejected")

// EndpointOp names a registry mutation, for observers (journaling).
type EndpointOp string

// Endpoint registry operations.
const (
	EndpointPublish  EndpointOp = "publish"
	EndpointSuspend  EndpointOp = "suspend"
	EndpointWithdraw EndpointOp = "withdraw"
)

// EndpointObserver observes committed registry mutations. It is called
// under the registry lock — it must not call back into the registry.
type EndpointObserver func(op EndpointOp, uid string, ep proto.Endpoint, gen uint64)

// EndpointRegistry is the session-level endpoint registry — the authority
// clients resolve a stable service UID against instead of caching a raw
// endpoint. It owns the session-wide mapping that survives the pilot:
// every publication carries a monotonically increasing generation per
// service UID, so a client holding generation g detects staleness the
// moment Resolve returns g' > g and re-resolves instead of redialing a
// dead address.
//
// Lifecycle of one entry: Publish (live, gen+1) → Suspend (endpoint
// retained, not resolvable — the hosting pilot died and a re-placement is
// in flight) → Publish (live again, gen+1) → … → Withdraw (tombstoned;
// Await* fail with ErrWithdrawn).
//
// The registry is purely synchronization and bookkeeping: publication
// overhead is charged where the endpoint is physically published (the
// pilot's service bootstrap), never here, which keeps every method safe
// to call from any goroutine without touching the session clock.
type EndpointRegistry struct {
	mu      sync.Mutex
	entries map[string]*endpointEntry
	// fence is the minimum session incarnation a publication must carry
	// (crash recovery raises it; zero accepts everything, which keeps
	// journal-less sessions — incarnation 0 throughout — unaffected).
	fence    uint64
	observer EndpointObserver
}

type endpointEntry struct {
	ep        proto.Endpoint
	gen       uint64
	live      bool
	withdrawn bool
	waiters   []chan struct{}
	// members are replica service UIDs grouped under this logical UID by
	// the session autoscaler; balancing clients spread requests across
	// them. Membership is routing state, not a publication: it does not
	// move the generation.
	members []string
	// depth and loadAt are the endpoint's last reported load: total depth
	// (queued+in-flight) and the report stamp in nanoseconds, atomics so
	// balancing pickers read them on the request hot path without r.mu.
	depth  atomic.Int64
	loadAt atomic.Int64
	// group is the atomically-swapped immutable balancing view of this
	// logical UID (base plus members), rebuilt under r.mu on every
	// membership change. Balancers cache the entry pointer once and load
	// the view per pick — no lock, no allocation.
	group atomic.Pointer[GroupView]
	// pinned marks entries referenced by a balancing view (a group base
	// or one of its members). The await placeholder cleanup must not
	// delete them: a balancer holds their pointers.
	pinned bool
}

// Load is a per-endpoint load report: the honest queue split surfaced by
// serving.Server, stamped with the session-clock time it was taken.
// Whoever observes the instance (the session autoscaler's control loop, a
// campaign's reporter) pushes reports; balancing clients read them to
// pick less-loaded replicas, and treat a stamp older than their staleness
// horizon as no information at all.
type Load struct {
	Queued   int       // admitted, waiting for a worker
	InFlight int       // currently executing
	At       time.Time // session-clock stamp of the observation
}

// GroupView is an immutable balancing view: one logical service UID's
// base entry at index 0 plus its current replica members, or (for a Pool)
// one model's live endpoints. It implements loadbal.LoadView; Load reads
// the per-entry atomic gauges, so a pick costs two atomic loads per probe
// and never blocks a registry mutation.
type GroupView struct {
	uids    []string
	entries []*endpointEntry
}

// Len returns the candidate count.
func (g *GroupView) Len() int { return len(g.uids) }

// UID returns candidate i's service UID.
func (g *GroupView) UID(i int) string { return g.uids[i] }

// Load returns candidate i's reported depth and report stamp
// (nanoseconds; 0 = never reported).
func (g *GroupView) Load(i int) (int, int64) {
	e := g.entries[i]
	return int(e.depth.Load()), e.loadAt.Load()
}

// NewEndpointRegistry returns an empty registry.
func NewEndpointRegistry() *EndpointRegistry {
	return &EndpointRegistry{entries: make(map[string]*endpointEntry)}
}

// Publish records ep as the live endpoint of its service UID and returns
// the new generation. Re-publication (failover onto a new pilot) bumps the
// generation; a previously withdrawn UID may be published again (the
// tombstone clears). Every waiter parked in AwaitLive/AwaitNewer wakes.
//
// A publication stamped with a session incarnation below the registry
// fence is rejected with ErrStaleIncarnation: after a crash recovery, a
// zombie instance from the previous incarnation may still try to publish,
// and letting it through would clobber the re-placed successor.
func (r *EndpointRegistry) Publish(ep proto.Endpoint) (uint64, error) {
	r.mu.Lock()
	if ep.Incarnation < r.fence {
		r.mu.Unlock()
		return 0, fmt.Errorf("%w: %s at incarnation %d, fence %d",
			ErrStaleIncarnation, ep.ServiceUID, ep.Incarnation, r.fence)
	}
	e := r.entries[ep.ServiceUID]
	if e == nil {
		e = &endpointEntry{}
		r.entries[ep.ServiceUID] = e
	}
	e.gen++
	ep.Generation = e.gen
	e.ep = ep
	e.live = true
	e.withdrawn = false
	gen := e.gen
	r.wakeLocked(e)
	if r.observer != nil {
		r.observer(EndpointPublish, ep.ServiceUID, ep, gen)
	}
	r.mu.Unlock()
	return gen, nil
}

// SetFence raises the minimum accepted publication incarnation. It only
// moves forward; a lower value than the current fence is ignored.
func (r *EndpointRegistry) SetFence(min uint64) {
	r.mu.Lock()
	if min > r.fence {
		r.fence = min
	}
	r.mu.Unlock()
}

// Fence returns the current incarnation fence.
func (r *EndpointRegistry) Fence() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fence
}

// SetObserver installs the registry's mutation observer (at most one; the
// session journal). The observer runs under the registry lock and must
// not re-enter the registry.
func (r *EndpointRegistry) SetObserver(obs EndpointObserver) {
	r.mu.Lock()
	r.observer = obs
	r.mu.Unlock()
}

// Restore seeds a UID's entry from a journal replay: the generation floor
// (so the first post-recovery re-publish lands strictly newer than any
// pre-crash client copy) and the withdrawn tombstone. It does not make the
// entry live — only a real Publish does.
func (r *EndpointRegistry) Restore(uid string, gen uint64, withdrawn bool) {
	r.mu.Lock()
	e := r.entries[uid]
	if e == nil {
		e = &endpointEntry{}
		r.entries[uid] = e
	}
	if gen > e.gen {
		e.gen = gen
	}
	if withdrawn {
		e.withdrawn = true
		r.wakeLocked(e)
	}
	r.mu.Unlock()
}

// Suspend marks a service's endpoint unresolvable without forgetting it:
// the hosting pilot stopped and the session is re-placing the service.
// Clients block in AwaitNewer until the re-publication lands. The
// generation does not move — it only counts publications, so a client
// holding the pre-failover generation still detects the eventual
// re-publish as newer.
func (r *EndpointRegistry) Suspend(uid string) {
	r.mu.Lock()
	if e := r.entries[uid]; e != nil {
		e.live = false
		if r.observer != nil {
			r.observer(EndpointSuspend, uid, e.ep, e.gen)
		}
	}
	r.mu.Unlock()
}

// Withdraw tombstones a service UID: the service is gone for good and no
// re-publication will follow. Parked waiters wake and fail with
// ErrWithdrawn.
func (r *EndpointRegistry) Withdraw(uid string) {
	r.mu.Lock()
	e := r.entries[uid]
	if e == nil {
		e = &endpointEntry{}
		r.entries[uid] = e
	}
	e.live = false
	e.withdrawn = true
	r.wakeLocked(e)
	if r.observer != nil {
		r.observer(EndpointWithdraw, uid, e.ep, e.gen)
	}
	r.mu.Unlock()
}

// wakeLocked releases every waiter of e. Callers hold r.mu.
func (r *EndpointRegistry) wakeLocked(e *endpointEntry) {
	for _, ch := range e.waiters {
		close(ch)
	}
	e.waiters = nil
}

// Resolve returns the live endpoint of uid and its generation. A
// suspended, withdrawn or never-published UID resolves to false.
func (r *EndpointRegistry) Resolve(uid string) (proto.Endpoint, uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[uid]
	if e == nil || !e.live {
		return proto.Endpoint{}, 0, false
	}
	return e.ep, e.gen, true
}

// Peek returns the last-published endpoint of uid and its generation
// even while the entry is suspended — the warm-standby promotion path
// reads the held standby's endpoint to re-publish it under the base UID.
// A never-published or withdrawn UID reports false.
func (r *EndpointRegistry) Peek(uid string) (proto.Endpoint, uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[uid]
	if e == nil || e.withdrawn || e.gen == 0 {
		return proto.Endpoint{}, 0, false
	}
	return e.ep, e.gen, true
}

// Generation returns the publication count of uid (0 when never
// published). Unlike Resolve it also reports suspended entries, so
// clients can cheaply check staleness without resolving.
func (r *EndpointRegistry) Generation(uid string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[uid]; e != nil {
		return e.gen
	}
	return 0
}

// All returns every live endpoint, sorted by service UID.
func (r *EndpointRegistry) All() []proto.Endpoint {
	r.mu.Lock()
	out := make([]proto.Endpoint, 0, len(r.entries))
	for _, e := range r.entries {
		if e.live {
			out = append(out, e.ep)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ServiceUID < out[j].ServiceUID })
	return out
}

// ByModel returns every live endpoint exposing model, sorted by service
// UID.
func (r *EndpointRegistry) ByModel(model string) []proto.Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	view := r.modelViewLocked(model)
	out := make([]proto.Endpoint, len(view.entries))
	for i, e := range view.entries {
		out[i] = e.ep
	}
	return out
}

// modelView returns ByModel's candidate set as a balancing view: the
// pool's per-request snapshot, read lock-free by its picker.
func (r *EndpointRegistry) modelView(model string) *GroupView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.modelViewLocked(model)
}

func (r *EndpointRegistry) modelViewLocked(model string) *GroupView {
	view := &GroupView{}
	for uid, e := range r.entries {
		if e.live && e.ep.Model == model {
			view.uids = append(view.uids, uid)
		}
	}
	sort.Strings(view.uids)
	for _, uid := range view.uids {
		view.entries = append(view.entries, r.entries[uid])
	}
	return view
}

// AwaitLive blocks until uid has a live endpoint (any generation), the
// UID is withdrawn, or ctx expires.
func (r *EndpointRegistry) AwaitLive(ctx context.Context, uid string) (proto.Endpoint, uint64, error) {
	return r.await(ctx, uid, 0)
}

// AwaitNewer blocks until uid has a live endpoint with a generation
// strictly greater than after — the re-resolution primitive: a client
// whose request failed on generation g parks here and wakes exactly when
// the failover re-publication lands. It returns immediately when the
// registry already holds a newer live endpoint (the client lost the race
// to the re-publish, which is the good case).
func (r *EndpointRegistry) AwaitNewer(ctx context.Context, uid string, after uint64) (proto.Endpoint, uint64, error) {
	return r.await(ctx, uid, after)
}

// AddMember records member (a replica service UID) under the logical
// group UID. Adding an already-present member is a no-op. The group's
// entry is created if the group was never published — membership may
// precede the base publication during recovery replays.
func (r *EndpointRegistry) AddMember(group, member string) {
	r.mu.Lock()
	e := r.entries[group]
	if e == nil {
		e = &endpointEntry{}
		r.entries[group] = e
	}
	for _, m := range e.members {
		if m == member {
			r.mu.Unlock()
			return
		}
	}
	e.members = append(e.members, member)
	r.rebuildGroupLocked(group, e)
	r.mu.Unlock()
}

// RemoveMember drops member from the logical group UID. Removing an
// absent member is a no-op.
func (r *EndpointRegistry) RemoveMember(group, member string) {
	r.mu.Lock()
	if e := r.entries[group]; e != nil {
		for i, m := range e.members {
			if m == member {
				e.members = append(e.members[:i], e.members[i+1:]...)
				r.rebuildGroupLocked(group, e)
				break
			}
		}
	}
	r.mu.Unlock()
}

// rebuildGroupLocked swaps in a fresh immutable balancing view for the
// group after a membership change. Member entries are created eagerly
// (membership can precede publication) and pinned along with the base:
// balancers hold view entry pointers, so the await placeholder cleanup
// must never delete them. Caller holds r.mu.
func (r *EndpointRegistry) rebuildGroupLocked(group string, e *endpointEntry) {
	view := &GroupView{
		uids:    make([]string, 0, len(e.members)+1),
		entries: make([]*endpointEntry, 0, len(e.members)+1),
	}
	e.pinned = true
	view.uids = append(view.uids, group)
	view.entries = append(view.entries, e)
	for _, m := range e.members {
		me := r.entries[m]
		if me == nil {
			me = &endpointEntry{}
			r.entries[m] = me
		}
		me.pinned = true
		view.uids = append(view.uids, m)
		view.entries = append(view.entries, me)
	}
	e.group.Store(view)
}

// groupEntry returns (creating and pinning if absent) the entry a
// balancer caches for its logical UID: the per-pick view load goes
// through the returned pointer, not the registry map.
func (r *EndpointRegistry) groupEntry(uid string) *endpointEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[uid]
	if e == nil {
		e = &endpointEntry{}
		r.entries[uid] = e
	}
	e.pinned = true
	return e
}

// ReportLoad records uid's latest load gauges. Reports for unknown UIDs
// are dropped — a retired replica's straggling report must not
// resurrect its entry. The report lands in the entry's atomic depth/stamp
// pair, which balancing pickers read lock-free.
func (r *EndpointRegistry) ReportLoad(uid string, l Load) {
	r.mu.Lock()
	if e := r.entries[uid]; e != nil {
		e.depth.Store(int64(l.Queued + l.InFlight))
		e.loadAt.Store(l.At.UnixNano())
	}
	r.mu.Unlock()
}

func (r *EndpointRegistry) await(ctx context.Context, uid string, after uint64) (proto.Endpoint, uint64, error) {
	for {
		r.mu.Lock()
		e := r.entries[uid]
		if e == nil {
			e = &endpointEntry{}
			r.entries[uid] = e
		}
		if e.withdrawn {
			r.mu.Unlock()
			return proto.Endpoint{}, 0, fmt.Errorf("%w: %s", ErrWithdrawn, uid)
		}
		if e.live && e.gen > after {
			ep, gen := e.ep, e.gen
			r.mu.Unlock()
			return ep, gen, nil
		}
		ch := make(chan struct{})
		e.waiters = append(e.waiters, ch)
		r.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			// Unregister the waiter (a concurrent wake may already have
			// consumed it) and drop the entry again if it was only ever a
			// placeholder this call synthesized — a long-lived session
			// polling unknown or never-republished UIDs with per-request
			// timeouts must not grow the registry without bound.
			r.mu.Lock()
			for i, w := range e.waiters {
				if w == ch {
					e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
					break
				}
			}
			if e.gen == 0 && !e.live && !e.withdrawn && !e.pinned && len(e.waiters) == 0 && len(e.members) == 0 {
				delete(r.entries, uid)
			}
			r.mu.Unlock()
			return proto.Endpoint{}, 0, ctx.Err()
		}
	}
}

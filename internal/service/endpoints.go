package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/serving"
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
	endpointPublish  EndpointOp = "publish"
	endpointSuspend  EndpointOp = "suspend"
	endpointWithdraw EndpointOp = "withdraw"
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
	// replicas are the service UIDs the session autoscaler groups under
	// this logical UID; balancing clients spread requests across them. Membership is routing state, not a publication: it does not
	// move the generation.
	replicas []string
	// srv is the server of the in-process instance that published the live
	// endpoint (PublishLocal), nil for any other entry: balancing pickers
	// read its queue counters at pick time. Suspend, Withdraw and every
	// re-publication re-point it, so a pick never reads a dead server.
	srv atomic.Pointer[serving.Server]
	// depth and loadAt are the endpoint's last reported load (ReportLoad),
	// the gauge of an entry with no in-process server: total depth
	// (queued+in-flight) and the report stamp in nanoseconds, atomics so
	// balancing pickers read them on the request hot path without r.mu.
	depth  atomic.Int64
	loadAt atomic.Int64
	// group is the atomically-swapped immutable balancing view of this
	// logical UID (base plus members), rebuilt under r.mu on every
	// membership change. Balancers cache the entry pointer once and load
	// the view per pick — no lock, no allocation.
	group atomic.Pointer[groupView]
	// pinned marks entries referenced by a balancing view (a group base
	// or one of its members). AwaitNewer's placeholder cleanup must not
	// delete them: a balancer holds their pointers.
	pinned bool
}

// Load is a load report for an endpoint the registry cannot read load from
// itself (one with no in-process server: a remote endpoint), stamped with
// the session-clock time it was taken. Balancing clients read it to pick
// less-loaded replicas, and treat a stamp older than their staleness
// horizon as no information at all. An entry published by an in-process
// instance ignores reports: its server's own counters are the gauge.
type Load struct {
	Queued   int       // admitted, waiting for a worker
	InFlight int       // currently executing
	At       time.Time // session-clock stamp of the observation
}

// groupView is an immutable balancing view: one logical service UID's
// base entry at index 0 plus its current replica members. It implements
// loadbal.LoadView; Load reads the member's server counters (or, with no
// in-process server, its last report) through atomics, so a probe never
// blocks a registry mutation.
type groupView struct {
	uids    []string
	entries []*endpointEntry
}

// Len returns the candidate count.
func (g *groupView) Len() int { return len(g.uids) }

// UID returns candidate i's service UID.
func (g *groupView) UID(i int) string { return g.uids[i] }

// Load returns candidate i's depth and its stamp in nanoseconds. A member
// published by an in-process instance reports its server's queued plus
// in-flight count at this instant, stamped math.MaxInt64: a live gauge is
// never stale. Any other member reports its last ReportLoad and that
// report's stamp (0 = never reported).
func (g *groupView) Load(i int) (int, int64) {
	e := g.entries[i]
	if srv := e.srv.Load(); srv != nil {
		return srv.QueueDepth(), math.MaxInt64
	}
	return int(e.depth.Load()), e.loadAt.Load()
}

// NewEndpointRegistry returns an empty registry.
func NewEndpointRegistry() *EndpointRegistry {
	return &EndpointRegistry{entries: make(map[string]*endpointEntry)}
}

// Publish records ep as the live endpoint of its service UID and returns
// the new generation. Re-publication (failover onto a new pilot) bumps the
// generation; a previously withdrawn UID may be published again (the
// tombstone clears). Every waiter parked in AwaitNewer wakes.
//
// A publication stamped with a session incarnation below the registry
// fence is rejected with ErrStaleIncarnation: after a crash recovery, a
// zombie instance from the previous incarnation may still try to publish,
// and letting it through would clobber the re-placed successor.
//
// The entry then has no in-process server: balancing reads its load from
// ReportLoad. An in-process instance publishes through PublishLocal.
func (r *EndpointRegistry) Publish(ep proto.Endpoint) (uint64, error) {
	return r.publish(ep, nil)
}

// PublishLocal is Publish for an endpoint that the in-process server srv
// answers, under ep.ServiceUID (which need not be the UID srv serves under: a
// promoted standby serves its group's base UID). Balancing then reads the
// entry's load from srv at pick time, until the entry is suspended, withdrawn
// or published again.
func (r *EndpointRegistry) PublishLocal(ep proto.Endpoint, srv *serving.Server) (uint64, error) {
	return r.publish(ep, srv)
}

func (r *EndpointRegistry) publish(ep proto.Endpoint, srv *serving.Server) (uint64, error) {
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
	e.srv.Store(srv)
	e.live = true
	e.withdrawn = false
	gen := e.gen
	r.wakeLocked(e)
	if r.observer != nil {
		r.observer(endpointPublish, ep.ServiceUID, ep, gen)
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
		e.srv.Store(nil)
		if r.observer != nil {
			r.observer(endpointSuspend, uid, e.ep, e.gen)
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
	e.srv.Store(nil)
	r.wakeLocked(e)
	if r.observer != nil {
		r.observer(endpointWithdraw, uid, e.ep, e.gen)
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

// withdrawn reports whether uid is tombstoned.
func (r *EndpointRegistry) withdrawn(uid string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[uid]
	return e != nil && e.withdrawn
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

// ByModel returns every live endpoint exposing model, sorted by service
// UID.
func (r *EndpointRegistry) ByModel(model string) []proto.Endpoint {
	r.mu.Lock()
	var out []proto.Endpoint
	for _, e := range r.entries {
		if e.live && e.ep.Model == model {
			out = append(out, e.ep)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ServiceUID < out[j].ServiceUID })
	return out
}

// AwaitNewer blocks until uid has a live endpoint with a generation
// strictly greater than after — the re-resolution primitive: a client
// whose request failed on generation g parks here and wakes exactly when
// the failover re-publication lands. It returns immediately when the
// registry already holds a newer live endpoint (the client lost the race
// to the re-publish, which is the good case).
func (r *EndpointRegistry) AwaitNewer(ctx context.Context, uid string, after uint64) (proto.Endpoint, uint64, error) {
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
			if e.gen == 0 && !e.live && !e.withdrawn && !e.pinned && len(e.waiters) == 0 && len(e.replicas) == 0 {
				delete(r.entries, uid)
			}
			r.mu.Unlock()
			return proto.Endpoint{}, 0, ctx.Err()
		}
	}
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
	for _, m := range e.replicas {
		if m == member {
			r.mu.Unlock()
			return
		}
	}
	e.replicas = append(e.replicas, member)
	r.rebuildGroupLocked(group, e)
	r.mu.Unlock()
}

// RemoveMember drops member from the logical group UID. Removing an
// absent member is a no-op.
func (r *EndpointRegistry) RemoveMember(group, member string) {
	r.mu.Lock()
	if e := r.entries[group]; e != nil {
		for i, m := range e.replicas {
			if m == member {
				e.replicas = append(e.replicas[:i], e.replicas[i+1:]...)
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
// balancers hold view entry pointers, so AwaitNewer's placeholder cleanup
// must never delete them. Caller holds r.mu.
func (r *EndpointRegistry) rebuildGroupLocked(group string, e *endpointEntry) {
	view := &groupView{
		uids:    make([]string, 0, len(e.replicas)+1),
		entries: make([]*endpointEntry, 0, len(e.replicas)+1),
	}
	e.pinned = true
	view.uids = append(view.uids, group)
	view.entries = append(view.entries, e)
	for _, m := range e.replicas {
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

// ReportLoad records uid's latest load gauges, for an entry with no
// in-process server (one published by PublishLocal reads its server
// instead). Reports for unknown UIDs are dropped — a retired replica's
// straggling report must not resurrect its entry. The report lands in the
// entry's atomic depth/stamp pair, which balancing pickers read lock-free.
func (r *EndpointRegistry) ReportLoad(uid string, l Load) {
	r.mu.Lock()
	if e := r.entries[uid]; e != nil {
		e.depth.Store(int64(l.Queued + l.InFlight))
		e.loadAt.Store(l.At.UnixNano())
	}
	r.mu.Unlock()
}

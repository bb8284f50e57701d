package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
)

// DialFn connects to one concrete endpoint. The session supplies an
// implementation that dispatches on the endpoint protocol (msgq vs rest),
// so a Resolver is transport-agnostic.
type DialFn func(ep proto.Endpoint) (Caller, error)

// defaultResolverRetries bounds how many times one Infer call re-resolves
// after a failure before surfacing the error. Each retry requires the
// registry to publish a generation newer than the one that failed, so the
// bound is on failovers survived per request, not on busy-loop attempts.
const defaultResolverRetries = 3

// Resolver is a Caller bound to a stable service UID instead of a raw
// endpoint. Every Infer resolves the UID through the session
// EndpointRegistry: while the cached generation is current the cached
// connection is reused (one registry read per request), and when a request
// fails — or the registry reports a newer generation — the resolver drops
// the stale connection, awaits the re-publication, redials, and retries.
// This is the client half of failure-driven service re-placement: a pilot
// death re-publishes the service's endpoint under the same UID with a
// bumped generation, and resolver-backed clients follow it while
// endpoint-caching clients keep erroring into the dead address.
type Resolver struct {
	reg  *EndpointRegistry
	uid  string
	dial DialFn
	// retries bounds re-resolutions per Infer (defaultResolverRetries).
	retries int

	mu         sync.Mutex
	cur        Caller
	gen        uint64
	reresolved int
	closed     bool
}

// NewResolver builds a Resolver for uid over reg. dial must not be nil;
// retries ≤ 0 selects defaultResolverRetries.
func NewResolver(reg *EndpointRegistry, uid string, dial DialFn, retries int) (*Resolver, error) {
	if reg == nil || dial == nil {
		return nil, fmt.Errorf("service: resolver for %s needs a registry and a dial function", uid)
	}
	if retries <= 0 {
		retries = defaultResolverRetries
	}
	return &Resolver{reg: reg, uid: uid, dial: dial, retries: retries}, nil
}

// Reresolved counts how many times the resolver dropped a stale
// connection and re-resolved the endpoint (0 while no failover happened).
func (r *Resolver) Reresolved() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reresolved
}

// Infer implements Caller. The happy path costs one registry generation
// check over a plain Caller; on an endpoint failure it parks in
// AwaitNewer until the failover re-publication lands (bounded by ctx and
// the retry budget) and retries the same request against the new
// endpoint. Application-level errors from a live, current-generation
// service (a full queue, a model error) surface immediately — they are
// the service answering, not the endpoint dying, and no re-publication
// would change the outcome.
func (r *Resolver) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		cl, gen, err := r.client(ctx)
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
		if !r.stale(err, gen) {
			break
		}
		if attempt == r.retries {
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
		r.evict(gen)
		if _, _, werr := r.reg.AwaitNewer(ctx, r.uid, gen); werr != nil {
			lastErr = fmt.Errorf("%w (endpoint failed first: %v)", werr, lastErr)
			break
		}
	}
	return proto.InferenceReply{}, metrics.Breakdown{}, lastErr
}

// stale reports whether a failed request at generation gen should trigger
// re-resolution: the transport says the endpoint is gone, the registry
// already holds a different generation, or the entry is suspended (a
// failover is in flight). A live entry at the same generation returning
// an application error is NOT stale — parking would wait for a
// publication that will never come.
func (r *Resolver) stale(err error, gen uint64) bool {
	if errors.Is(err, msgq.ErrClosed) || errors.Is(err, msgq.ErrUnknownAddr) {
		return true
	}
	if _, liveGen, ok := r.reg.Resolve(r.uid); !ok || liveGen != gen {
		return true
	}
	return false
}

// client returns a Caller connected to the current endpoint of r.uid,
// redialing when the registry holds a newer generation than the cached
// connection (or none is cached yet). The first resolution waits for the
// endpoint to be published at all.
func (r *Resolver) client(ctx context.Context) (Caller, uint64, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, fmt.Errorf("service: resolver for %s closed", r.uid)
	}
	cur, gen := r.cur, r.gen
	r.mu.Unlock()

	ep, liveGen, ok := r.reg.Resolve(r.uid)
	if !ok {
		// Not live right now: first call before publication, or a failover
		// in flight. Park until the (re-)publication lands.
		var err error
		ep, liveGen, err = r.reg.AwaitNewer(ctx, r.uid, gen)
		if err != nil {
			return nil, 0, err
		}
	}
	if cur != nil && gen == liveGen {
		return cur, gen, nil
	}

	cl, err := r.dial(ep)
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = cl.Close()
		return nil, 0, fmt.Errorf("service: resolver for %s closed", r.uid)
	}
	if r.cur != nil && r.gen >= liveGen {
		// another goroutine installed an equal-or-newer connection while
		// we dialed: keep the fresher one, never regress the cache
		cl2, gen2 := r.cur, r.gen
		r.mu.Unlock()
		_ = cl.Close()
		return cl2, gen2, nil
	}
	old := r.cur
	r.cur, r.gen = cl, liveGen
	if gen != 0 || old != nil {
		r.reresolved++
	}
	r.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return cl, liveGen, nil
}

// evict drops the cached connection if it still carries generation gen.
func (r *Resolver) evict(gen uint64) {
	r.mu.Lock()
	var old Caller
	if r.cur != nil && r.gen == gen {
		old = r.cur
		r.cur = nil
	}
	r.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// Close implements Caller: drops the cached connection and refuses
// further calls.
func (r *Resolver) Close() error {
	r.mu.Lock()
	old := r.cur
	r.cur = nil
	r.closed = true
	r.mu.Unlock()
	if old != nil {
		return old.Close()
	}
	return nil
}

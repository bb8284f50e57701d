package scheduler

import (
	"sort"
	"sync"
)

// Router hands each placement to whoever waits for it. A pilot agent creates
// one Router and installs Route as the scheduler's PlaceFn; managers register
// a continuation (Then) before submitting so the placement finds its
// consumer. Route, Cancel and Drain take a waiter out
// of the one table under one lock: exactly one of them gets each.
type Router struct {
	mu   sync.Mutex
	then map[string]func(Placement)
}

// NewRouter returns an empty Router.
func NewRouter() *Router {
	return &Router{then: make(map[string]func(Placement))}
}

// Then registers fn as what follows the placement of uid: Route calls it
// once, on the scheduler's goroutine, so it must not block — a waiter that
// has work to do starts its goroutine there, and holds none until then. It
// must be called before the request is submitted.
func (r *Router) Then(uid string, fn func(Placement)) {
	r.mu.Lock()
	r.then[uid] = fn
	r.mu.Unlock()
}

// Cancel removes interest in uid (e.g. submission failed, task context
// cancelled, pilot stopping). It reports whether the waiter was still
// registered: a false return means Route already committed to this uid —
// its continuation has the placement and must release it, or the allocation
// leaks — or a Drain took it.
func (r *Router) Cancel(uid string) bool {
	r.mu.Lock()
	_, ok := r.then[uid]
	delete(r.then, uid)
	r.mu.Unlock()
	return ok
}

// Drain cancels every waiter and returns the UIDs it took, shorter first and
// sorted within a length: submission order for UIDs that end in a
// zero-padded sequence number, wider past 999 999. A waiter registered after
// it is missed: one that registers without a goroutine watching the stop
// signal looks at that signal after Then, and withdraws with Cancel. A
// pilot's shutdown fails its queued services and tasks with one Drain.
func (r *Router) Drain() []string {
	r.mu.Lock()
	taken := make([]string, 0, len(r.then))
	for uid := range r.then {
		taken = append(taken, uid)
	}
	clear(r.then)
	r.mu.Unlock()
	sort.Strings(taken)
	sort.SliceStable(taken, func(i, j int) bool { return len(taken[i]) < len(taken[j]) })
	return taken
}

// Route delivers p to its waiter and reports whether one existed. Use as
// the scheduler's PlaceFn (or as part of a composite one).
func (r *Router) Route(p Placement) bool {
	r.mu.Lock()
	fn, ok := r.then[p.Req.UID]
	if ok {
		delete(r.then, p.Req.UID)
	}
	r.mu.Unlock()
	if ok {
		fn(p)
	}
	return ok
}

package scheduler

import (
	"sort"
	"sync"
)

// Router hands each placement to whoever waits for it. A pilot agent creates
// one Router and installs Route as the scheduler's PlaceFn; managers register
// a continuation (Then), or a channel over one (Expect), before submitting so
// the placement finds its consumer. Route, Cancel and Drain take a waiter out
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

// Expect is Then for a waiter that parks on a channel: the placement of uid
// arrives on the one returned.
func (r *Router) Expect(uid string) <-chan Placement {
	ch := make(chan Placement, 1)
	r.Then(uid, func(p Placement) { ch <- p })
	return ch
}

// Cancel removes interest in uid (e.g. submission failed, task context
// cancelled, pilot stopping). It reports whether the waiter was still
// registered: a false return means Route already committed to this uid —
// its continuation has the placement (an Expect channel holds it) and the
// waiter must release it, or the allocation leaks — or a Drain took it.
func (r *Router) Cancel(uid string) bool {
	r.mu.Lock()
	_, ok := r.then[uid]
	delete(r.then, uid)
	r.mu.Unlock()
	return ok
}

// Drain cancels every waiter that owns claims and returns the UIDs it took,
// sorted. A waiter registered while it runs may be missed: one that registers
// without a goroutine watching the stop signal looks at that signal after
// Then, and withdraws with Cancel. A pilot's shutdown fails its queued tasks
// with Drain; its bootstrapping services watch the signal themselves and
// stay.
func (r *Router) Drain(owns func(uid string) bool) []string {
	r.mu.Lock()
	uids := make([]string, 0, len(r.then))
	for uid := range r.then {
		uids = append(uids, uid)
	}
	r.mu.Unlock()
	taken := uids[:0]
	for _, uid := range uids {
		if owns(uid) && r.Cancel(uid) {
			taken = append(taken, uid)
		}
	}
	sort.Strings(taken)
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

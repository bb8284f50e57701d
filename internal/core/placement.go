package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/pilot"
	"repro/internal/router"
	"repro/internal/spec"
	"repro/internal/states"
)

// ErrSessionClosed is the failure work receives when the session shuts
// down before it could be placed: new submissions, overflow-pooled tasks,
// and re-placements of services whose pilot died during the shutdown.
var ErrSessionClosed = errors.New("core: session closed")

// errNoLivePilots is the routing outcome when no attached pilot can take
// work. Re-routed tasks park on it; everything else surfaces it.
var errNoLivePilots = errors.New("core: no active pilots")

// placer is the placement engine. The paper makes a service "a task with
// raised priority" scheduled inside a pilot, so binding a task and binding
// a service to a pilot are one decision: both managers embed a placer, and
// every path that binds a description to a pilot — first submission,
// re-route, failover re-placement, autoscaled replica, warm standby, crash
// recovery — goes through place.
type placer struct {
	kind string // "task" or "service": labels errors

	// mu guards the fields below and the embedding manager's own tables
	// (the overflow pool must change atomically with pilots and closed).
	mu     sync.Mutex
	pilots []*pilot.Pilot
	rt     router.Router
	closed bool
	// targets is the liveness filter's scratch, reused under mu; routers
	// keep no reference to it.
	targets []router.Target
}

// pilotLive reports whether p can take new work: ACTIVE and not shutting
// down. Shutdown closes the stop channel first and leaves ACTIVE last, with
// the pilot's managers closed in between, so the state alone would keep
// routing onto a pilot that refuses every submission.
func pilotLive(p *pilot.Pilot) bool {
	select {
	case <-p.Stopped():
		return false
	default:
		return p.State() == states.PilotActive
	}
}

// place binds d to a pilot: it routes d over the live pilots under the
// lock, hands the chosen pilot to dispatch outside it (dispatch journals,
// and the journal's crash hook may abandon the session, which takes the
// lock), and returns that pilot. If the pilot left ACTIVE between routing
// and dispatch, place routes again over the survivors: terminal pilot
// states bound the retries, and only that race costs extra router rotation
// steps. A pinned description, or a dispatch that failed on a pilot that is
// still live, surfaces the dispatch error.
//
// exclude names pilots to avoid while another live pilot can take d (the
// warm-standby spread). place retains neither d nor dispatch, so both stay
// on the caller's stack.
func (pl *placer) place(d *spec.TaskDescription, exclude map[string]bool, dispatch func(*pilot.Pilot) error) (*pilot.Pilot, error) {
	for {
		pl.mu.Lock()
		p, err := pl.pick(d, exclude)
		pl.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if err = dispatch(p); err == nil {
			return p, nil
		}
		if d.Pilot != "" || pilotLive(p) {
			return nil, err
		}
	}
}

// pick is the routing decision, made under pl.mu (which also serializes
// the router's per-selection state): the pinned pilot when d names one (it
// must be live), otherwise the router's choice over the live pilots —
// outside exclude first, over all of them when that leaves nothing
// routable (a spare on the same pilot still beats no spare).
func (pl *placer) pick(d *spec.TaskDescription, exclude map[string]bool) (*pilot.Pilot, error) {
	if pl.closed {
		return nil, ErrSessionClosed
	}
	if d.Pilot != "" {
		for _, p := range pl.pilots {
			if p.UID() == d.Pilot {
				if !pilotLive(p) {
					return nil, fmt.Errorf("core: %s %s pinned to pilot %s in state %s",
						pl.kind, d.UID, d.Pilot, p.State())
				}
				return p, nil
			}
		}
		return nil, fmt.Errorf("core: %s %s pinned to unknown pilot %q", pl.kind, d.UID, d.Pilot)
	}
	if len(exclude) > 0 {
		if p, err := pl.route(pl.live(exclude), d); err == nil {
			return p, nil
		}
	}
	return pl.route(pl.live(nil), d)
}

// live filters the attached pilots to the live ones outside exclude, into
// the scratch slice. Callers hold pl.mu.
func (pl *placer) live(exclude map[string]bool) []router.Target {
	pl.targets = pl.targets[:0]
	for _, p := range pl.pilots {
		if pilotLive(p) && !exclude[p.UID()] {
			pl.targets = append(pl.targets, p)
		}
	}
	return pl.targets
}

// route asks the router for one of targets.
func (pl *placer) route(targets []router.Target, d *spec.TaskDescription) (*pilot.Pilot, error) {
	if len(targets) == 0 {
		if len(pl.pilots) == 0 {
			return nil, fmt.Errorf("%w: %s manager has no pilots", errNoLivePilots, pl.kind)
		}
		return nil, errNoLivePilots
	}
	i, err := pl.rt.Route(targets, *d)
	if err != nil {
		return nil, err
	}
	return targets[i].(*pilot.Pilot), nil
}

// RouterName returns the name of the manager's active router.
func (pl *placer) RouterName() string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.rt.Name()
}

// isClosed reports whether the owning session shut the manager down.
func (pl *placer) isClosed() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.closed
}

// handle is what a Task and a Service share: the stable logical UID, the
// pilot currently bound to it, and the exactly-once settle.
type handle struct {
	uid string

	mu       sync.Mutex // also guards the embedding handle's own fields
	p        *pilot.Pilot
	finished bool
	err      error
	// done is made by the first Done that comes before finish; finish closes
	// it, or puts the one closed channel in its place.
	done chan struct{}
}

// finishedChan is the Done of every handle nobody asked before it finished.
var finishedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// UID returns the stable logical UID: the key the entity keeps across
// re-routes and re-placements (and the one clients resolve a service by).
func (h *handle) UID() string { return h.uid }

// Pilot returns the UID of the pilot currently bound, or "" while none is
// (a task in the overflow pool, a dispatch still in flight).
func (h *handle) Pilot() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.p == nil {
		return ""
	}
	return h.p.UID()
}

// Done returns a channel closed when the logical entity reaches a final
// state — including across re-routes and re-placements, which the
// per-pilot handles underneath cannot express.
func (h *handle) Done() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done == nil {
		h.done = make(chan struct{})
	}
	return h.done
}

// Err returns the final error (nil on success or graceful termination;
// undefined before Done() closes).
func (h *handle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// finish seals the logical entity exactly once.
func (h *handle) finish(err error) {
	h.mu.Lock()
	if h.finished {
		h.mu.Unlock()
		return
	}
	h.finished = true
	h.err = err
	if h.done == nil {
		h.done = finishedChan
	} else {
		close(h.done)
	}
	h.mu.Unlock()
}

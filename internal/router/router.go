// Package router implements the session-level task→pilot binding seam —
// the client-side half of the pilot abstraction's late-binding promise:
// tasks bind to concrete resources only when capacity is actually
// available, not at submission time. It mirrors the agent scheduler's
// Policy design one layer up: where scheduler.Policy decides which node
// inside one pilot a request lands on, a Router decides which pilot a
// task is dispatched to in the first place.
//
// Two routers ship built in. RoundRobin is the default and reproduces
// the seed TaskManager's dispatch sequence byte for byte (pinned by an
// equivalence test in core). CapacityFit is shape-aware: it consults
// each pilot's node-shape composition and its scheduler's
// capacity/queue-depth snapshot, sends a task that only one pilot's
// shapes can ever run to that pilot, and rejects at submit a task no
// attached pilot could ever fit, instead of letting it wedge in a blind
// pilot's wait pool.
//
// Routers keep per-selection state (the round-robin cursor) and are not
// safe for concurrent use: the TaskManager serializes Route calls under
// its own lock, and a Router instance must not be shared between task
// managers.
package router

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/scheduler"
	"repro/internal/spec"
)

// Router names accepted by ByName. The default ("", NameRoundRobin)
// preserves the seed dispatch semantics.
const (
	// NameRoundRobin dispatches tasks over the attached pilots in strict
	// rotation, blind to capacity — the seed TaskManager behaviour.
	NameRoundRobin = "round-robin"
	// NameCapacityFit routes shape-aware: only pilots whose node shapes
	// can ever run the task are candidates, tasks nobody can ever fit
	// are rejected at submit, and among candidates the router prefers
	// pilots with immediately available capacity, then the least loaded.
	NameCapacityFit = "capacity-fit"
)

// Target is the router's view of one candidate pilot: identity, static
// node-shape composition (what could ever run there) and a live
// capacity/queue-depth snapshot (what the pilot looks like right now).
// *pilot.Pilot satisfies it.
type Target interface {
	// UID identifies the pilot.
	UID() string
	// Shapes returns the pilot's node-shape composition.
	Shapes() []platform.NodeGroup
	// Snapshot returns the pilot scheduler's live load and free capacity.
	Snapshot() scheduler.Snapshot
}

// Router decides, one task at a time, which attached pilot receives a
// task description. Route returns an index into targets. Implementations
// may keep state across calls (the round-robin cursor advances only on a
// successful selection, so a rejected description never perturbs the
// sequence of its successors).
type Router interface {
	// Name returns the router identifier (one of the Name* constants for
	// the built-in routers).
	Name() string
	// Route selects the pilot for d, or returns an error when no target
	// should receive it (ErrNoTargets, or ErrUnroutable for shape-aware
	// routers that reject tasks nobody can ever run).
	Route(targets []Target, d spec.TaskDescription) (int, error)
}

// ErrNoTargets is returned by every router when no pilot is attached.
var ErrNoTargets = errors.New("router: no pilots attached")

// ErrUnroutable is returned by shape-aware routers when no attached
// pilot's node shapes could ever satisfy the task's demand — submitting
// it anywhere would wedge or fail it, so it is rejected at submit.
type ErrUnroutable struct {
	// Task is the task name or UID.
	Task string
	// Cores, GPUs, MemGB echo the per-node demand that fits nowhere.
	Cores int
	GPUs  int
	MemGB float64
}

// Error implements error.
func (e ErrUnroutable) Error() string {
	return fmt.Sprintf("router: task %s (%d cores, %d gpus, %.1f GB per node) fits no attached pilot's node shapes",
		e.Task, e.Cores, e.GPUs, e.MemGB)
}

// ByName returns a fresh instance of the named built-in router. The
// empty name selects NameRoundRobin, keeping the seed dispatch the
// default at every selection point (session config, journaled session).
func ByName(name string) (Router, error) {
	switch name {
	case "", NameRoundRobin:
		return newRoundRobin(), nil
	case NameCapacityFit:
		return newCapacityFit(), nil
	default:
		return nil, fmt.Errorf("router: unknown router %q (want %s|%s)",
			name, NameRoundRobin, NameCapacityFit)
	}
}

// everFits reports whether some group's node shape covers the per-node
// demand of d, on the same NodeSpec.Covers predicate the scheduler's
// admission check uses.
func everFits(groups []platform.NodeGroup, d spec.TaskDescription) bool {
	for _, g := range groups {
		if g.Spec.Covers(d.Cores, d.GPUs, d.MemGB) {
			return true
		}
	}
	return false
}

// --- round-robin -------------------------------------------------------------

// roundRobin is the seed dispatcher: strict rotation, blind to capacity.
type roundRobin struct{ next int }

// newRoundRobin returns the default router. Its task→pilot sequence is
// pinned byte-for-byte to the seed TaskManager's round-robin by
// TestRouterRoundRobinMatchesSeedSequence.
func newRoundRobin() Router { return &roundRobin{} }

// Name implements Router.
func (r *roundRobin) Name() string { return NameRoundRobin }

// Route implements Router: the next pilot in rotation, advancing only on
// success so an unsubmittable description does not shift its successors.
func (r *roundRobin) Route(targets []Target, d spec.TaskDescription) (int, error) {
	if len(targets) == 0 {
		return 0, ErrNoTargets
	}
	i := r.next % len(targets)
	r.next++
	return i, nil
}

// --- capacity-fit ------------------------------------------------------------

// capacityFit routes shape-aware on snapshots.
type capacityFit struct{}

// newCapacityFit returns the late-binding router: a task goes only to a
// pilot whose node shapes can ever run it, preferring pilots whose free
// single-node maxima say it may start right now (ranked least-loaded
// among those), falling back to queueing on the least-loaded ever-fitting
// pilot, and rejecting with ErrUnroutable when no attached pilot could
// ever fit it.
func newCapacityFit() Router { return capacityFit{} }

// Name implements Router.
func (capacityFit) Name() string { return NameCapacityFit }

// Route implements Router.
func (capacityFit) Route(targets []Target, d spec.TaskDescription) (int, error) {
	if len(targets) == 0 {
		return 0, ErrNoTargets
	}
	name := d.UID
	if name == "" {
		name = d.Name
	}
	// Rank: fits-now candidates before queue-only candidates; within each
	// class the shallowest wait pool wins, then the most weighted free
	// capacity, then the lowest index.
	best, bestNow := -1, false
	var bestWaiting int
	var bestFree float64
	for i, t := range targets {
		if !everFits(t.Shapes(), d) {
			continue
		}
		sn := t.Snapshot()
		now := sn.MayFitNow(d.Cores, d.GPUs, d.MemGB)
		free := sn.FreeWeighted()
		better := best < 0 ||
			(now && !bestNow) ||
			(now == bestNow && (sn.Waiting < bestWaiting ||
				(sn.Waiting == bestWaiting && free > bestFree)))
		if better {
			best, bestNow, bestWaiting, bestFree = i, now, sn.Waiting, free
		}
	}
	if best < 0 {
		return 0, ErrUnroutable{Task: name, Cores: d.Cores, GPUs: d.GPUs, MemGB: d.MemGB}
	}
	return best, nil
}

// --- overflow drain ranking --------------------------------------------------

// Ranker is an optional Router capability: when a new pilot attaches and
// the session drains its overflow pool onto it, a Ranker orders the
// parked descriptions by how well the new target serves them, instead of
// blind submission order. RankDrain returns a permutation of indices into
// descs; routers without the capability keep the seed drain order.
type Ranker interface {
	// RankDrain orders descs for draining toward target.
	RankDrain(target Target, descs []spec.TaskDescription) []int
}

// RankDrain implements Ranker for the capacity-fit router: descriptions
// whose demand passes the new pilot's single-node free-maxima check
// (may start right now) drain first, so the fresh capacity starts real
// work immediately instead of queueing a blocked head in front of it;
// within each class submission order is preserved, keeping the drain
// deterministic.
func (capacityFit) RankDrain(target Target, descs []spec.TaskDescription) []int {
	sn := target.Snapshot()
	order := make([]int, 0, len(descs))
	var rest []int
	for i, d := range descs {
		if sn.MayFitNow(d.Cores, d.GPUs, d.MemGB) {
			order = append(order, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(order, rest...)
}

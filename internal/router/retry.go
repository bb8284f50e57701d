package router

import "repro/internal/spec"

// withRetry wraps a blind router with shape-aware retries: when the inner
// router's pick could never run the task (no node shape of that pilot
// covers the demand), the wrapper asks the inner router again — up to one
// full pass over the targets — instead of letting the task land on a
// pilot whose scheduler will reject it as unsatisfiable. When no target
// at all could ever fit, it rejects with ErrUnroutable at submit, exactly
// like the shape-aware routers.
//
// The wrapper never perturbs the inner router's sequence for routable
// tasks: a pick that can run the task is returned as-is, so a
// round-robin+retry session dispatches byte-for-byte like plain
// round-robin until the first task that would have wedged — graceful
// degradation without changing the pinned default dispatch.
type withRetry struct{ inner Router }

// newWithRetry wraps inner with retry-on-unsatisfiable semantics. Wrapping a
// shape-aware router is harmless (its picks always pass the fit check on
// the first try).
func newWithRetry(inner Router) Router { return &withRetry{inner: inner} }

// Name implements Router.
func (r *withRetry) Name() string { return r.inner.Name() + "+retry" }

// RankDrain implements Ranker, forwarding the inner router's drain
// ranking so wrapping never loses the capability ("capacity-fit+retry"
// keeps the fits-now-first overflow drain). An inner router without a
// ranking keeps submission order (the identity permutation).
func (r *withRetry) RankDrain(target Target, descs []spec.TaskDescription) []int {
	if rk, ok := r.inner.(Ranker); ok {
		return rk.RankDrain(target, descs)
	}
	order := make([]int, len(descs))
	for i := range order {
		order[i] = i
	}
	return order
}

// Route implements Router.
func (r *withRetry) Route(targets []Target, d spec.TaskDescription) (int, error) {
	if len(targets) == 0 {
		return 0, ErrNoTargets
	}
	anyFits := false
	for _, t := range targets {
		if everFits(t.Shapes(), d) {
			anyFits = true
			break
		}
	}
	if !anyFits {
		name := d.UID
		if name == "" {
			name = d.Name
		}
		return 0, ErrUnroutable{Task: name, Cores: d.Cores, GPUs: d.GPUs, MemGB: d.MemGB}
	}
	// Some target fits, so at most len(targets) inner picks reach it even
	// for a strict-rotation inner router; bail to the first fitting target
	// afterwards for inner routers with degenerate selection state.
	var i int
	var err error
	for attempt := 0; attempt < len(targets); attempt++ {
		i, err = r.inner.Route(targets, d)
		if err != nil {
			return 0, err
		}
		if everFits(targets[i].Shapes(), d) {
			return i, nil
		}
	}
	for j, t := range targets {
		if everFits(t.Shapes(), d) {
			return j, nil
		}
	}
	return i, nil // unreachable: anyFits guarantees the loop above returns
}

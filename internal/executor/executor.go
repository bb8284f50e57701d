// Package executor implements the agent-side Executor: it launches placed
// tasks and service tasks on their target resources and runs their
// payloads. Launching is modelled with the owning platform's LaunchModel,
// reproducing the paper's Fig. 3 observation that per-instance launch time
// is near-constant up to ~160 concurrent launches and grows beyond (MPI
// startup overhead); the executor tracks the number of concurrent launches
// to drive that model.
//
// Payloads are either simulated compute (a sampled duration slept on the
// session clock — the analogue of an executable task) or TaskFuncs:
// in-process functions, which is how the experiment harness implements the
// paper's client tasks that send inference requests to services. The
// distinction mirrors the executable-vs-function task split the paper
// inherits from RADICAL-Pilot and Raptor.
package executor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// Executor launches and runs placed work.
type Executor struct {
	clock  simtime.Clock
	src    *rng.Source
	launch platform.LaunchModel

	launching atomic.Int64 // concurrent launches, drives the launch model
	// launchPeak is the high-water mark of concurrent launches within the
	// current launch burst; it resets when the burst drains. Sampling the
	// penalty against the burst peak (after the base sleep) mirrors the
	// collective nature of MPI startup: every instance of a large burst
	// pays the system-level cost, regardless of arrival order.
	launchPeak atomic.Int64
	running    atomic.Int64
	completed  atomic.Int64
	failures   atomic.Int64

	wg sync.WaitGroup
}

// New returns an Executor for one pilot's platform.
func New(clock simtime.Clock, src *rng.Source, launch platform.LaunchModel) *Executor {
	return &Executor{clock: clock, src: src, launch: launch}
}

// Result reports one execution.
type Result struct {
	UID        string
	LaunchTime time.Duration
	ExecTime   time.Duration
	Err        error
}

// Launch blocks for the modelled launch overhead of one instance and
// returns it. The overhead grows when many instances launch concurrently.
func (e *Executor) Launch(uid string) time.Duration {
	n := e.launching.Add(1)
	for {
		peak := e.launchPeak.Load()
		if n <= peak || e.launchPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	// A model with nothing to sample needs no stream of its own. Derive does
	// not advance its parent, so skipping it leaves every other stream as is.
	var base time.Duration
	if !e.launch.Base.IsZero() {
		base = e.launch.Base.Sample(e.src.Derive(uid + ".launch"))
	}
	if base > 0 {
		e.clock.Sleep(base)
	}
	// penalty is assessed against the burst peak observed while this
	// instance was launching
	extra := e.launch.Penalty(int(e.launchPeak.Load()))
	if extra > 0 {
		e.clock.Sleep(extra)
	}
	if e.launching.Add(-1) == 0 {
		e.launchPeak.Store(0) // burst drained
	}
	return base + extra
}

// RunPayload executes the task's payload. Duration (when set) models the
// task's compute time as a clock sleep; Func (when set) runs real logic
// in-process. A task may carry both — e.g. a VEP annotation task whose
// modelled runtime is minutes but whose Func computes actual annotations
// on synthetic data — in which case the sleep precedes the Func.
func (e *Executor) RunPayload(ctx context.Context, d spec.TaskDescription) (time.Duration, error) {
	start := e.clock.Now()
	e.running.Add(1)
	defer e.running.Add(-1)
	var err error
	if !d.Duration.IsZero() {
		dur := d.Duration.Sample(e.src.Derive(d.UID + ".exec"))
		if dur > 0 {
			err = simtime.SleepCtx(ctx, e.clock, dur)
		}
	}
	if err == nil && d.Func != nil {
		err = d.Func(ctx)
	}
	elapsed := e.clock.Now().Sub(start)
	if err != nil {
		e.failures.Add(1)
		return elapsed, fmt.Errorf("executor: payload %s: %w", d.UID, err)
	}
	e.completed.Add(1)
	return elapsed, nil
}

// Execute performs the full launch+payload sequence for a placed task and
// releases the allocation through the scheduler (re-kicking placement).
// It is synchronous; the agent calls it from per-task goroutines.
func (e *Executor) Execute(ctx context.Context, sched *scheduler.Scheduler, p scheduler.Placement, d spec.TaskDescription) Result {
	defer sched.Release(p.Alloc)
	res := Result{UID: d.UID}
	res.LaunchTime = e.Launch(d.UID)
	res.ExecTime, res.Err = e.RunPayload(ctx, d)
	return res
}

// Go runs Execute asynchronously, delivering the result to done.
func (e *Executor) Go(ctx context.Context, sched *scheduler.Scheduler, p scheduler.Placement, d spec.TaskDescription, done func(Result)) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		done(e.Execute(ctx, sched, p, d))
	}()
}

// Wait blocks until all Go-launched executions finish.
func (e *Executor) Wait() { e.wg.Wait() }

// Launching returns the number of in-flight launches.
func (e *Executor) Launching() int { return int(e.launching.Load()) }

// Running returns the number of in-flight payloads.
func (e *Executor) Running() int { return int(e.running.Load()) }

// Completed returns the number of successful payloads.
func (e *Executor) Completed() int { return int(e.completed.Load()) }

// Failures returns the number of failed payloads.
func (e *Executor) Failures() int { return int(e.failures.Load()) }

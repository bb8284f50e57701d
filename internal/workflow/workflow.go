// Package workflow is the orchestration layer above the runtime facade —
// the role EnTK/Parsl/AirFlow play in the paper's Fig. 1 stack. A Pipeline
// is a DAG of Stages; each stage may start services, submit tasks, and run
// gate hooks (e.g. "start training only when sufficient processed data are
// available", §II-A). Independent stages execute concurrently, giving the
// asynchronous, task-level-parallel execution model all three LUCID use
// cases require.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pilot"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// Hook is a stage-level callback (gates, post-processing).
type Hook func(ctx context.Context, sess *core.Session) error

// Stage is one node of the pipeline DAG.
type Stage struct {
	// Name must be unique within the pipeline.
	Name string
	// After lists stage names that must complete first. Empty means the
	// stage is a root and may start immediately.
	After []string
	// Pre runs before any submission (use for data gates).
	Pre Hook
	// Services are started (and awaited ready) before the stage's tasks.
	Services []spec.ServiceDescription
	// Tasks are submitted together and awaited.
	Tasks []spec.TaskDescription
	// Pilot optionally routes this stage's tasks to the named pilot (a
	// routing hint copied onto each task description that does not pin a
	// pilot itself), so data-local stages can follow their staged inputs
	// instead of the session router's choice. Empty leaves routing to the
	// session's Router.
	Pilot string
	// Post runs after all tasks complete.
	Post Hook
}

// Pipeline is a named stage DAG.
type Pipeline struct {
	Name   string
	Stages []*Stage
}

// dependents validates the pipeline (name uniqueness, dependency resolution
// and acyclicity) and returns, per stage index, the indexes of the stages
// that depend on it.
func (p *Pipeline) dependents() ([][]int, error) {
	if p.Name == "" {
		return nil, errors.New("workflow: unnamed pipeline")
	}
	index := make(map[string]int, len(p.Stages))
	for i, st := range p.Stages {
		if st.Name == "" {
			return nil, fmt.Errorf("workflow: %s: unnamed stage", p.Name)
		}
		if _, dup := index[st.Name]; dup {
			return nil, fmt.Errorf("workflow: %s: duplicate stage %q", p.Name, st.Name)
		}
		index[st.Name] = i
	}
	next := make([][]int, len(p.Stages))
	indeg := make([]int, len(p.Stages))
	for i, st := range p.Stages {
		for _, dep := range st.After {
			j, ok := index[dep]
			if !ok {
				return nil, fmt.Errorf("workflow: %s: stage %q depends on unknown %q", p.Name, st.Name, dep)
			}
			next[j] = append(next[j], i)
			indeg[i]++
		}
	}
	// cycle detection: Kahn's algorithm
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for k := 0; k < len(queue); k++ {
		for _, m := range next[queue[k]] {
			if indeg[m]--; indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(queue) != len(p.Stages) {
		return nil, fmt.Errorf("workflow: %s: dependency cycle", p.Name)
	}
	return next, nil
}

// StageReport records one stage's execution.
type StageReport struct {
	Stage    string
	Started  time.Time
	Finished time.Time
	Tasks    int
	Services int
	Err      error
}

// Duration returns the stage's wall time on the session clock.
func (r StageReport) Duration() time.Duration { return r.Finished.Sub(r.Started) }

// Report aggregates a pipeline run.
type Report struct {
	Pipeline string
	Started  time.Time
	Finished time.Time
	Stages   []StageReport
}

// Duration returns the pipeline's wall time on the session clock.
func (r *Report) Duration() time.Duration { return r.Finished.Sub(r.Started) }

// StageReport returns the report of the named stage.
func (r *Report) StageReport(name string) (StageReport, bool) {
	for _, s := range r.Stages {
		if s.Stage == name {
			return s, true
		}
	}
	return StageReport{}, false
}

// Runner executes pipelines on a session.
type Runner struct {
	sess *core.Session
	run  *simtime.Virtual // the clock's runnability accounting, nil off the virtual clock
}

// NewRunner builds a Runner submitting to the given pilots through the
// session's task and service managers.
func NewRunner(sess *core.Session, pilots ...*pilot.Pilot) (*Runner, error) {
	if sess == nil || len(pilots) == 0 {
		return nil, errors.New("workflow: runner needs a session and at least one pilot")
	}
	for _, p := range pilots {
		sess.TaskManager().AddPilot(p)
		sess.ServiceManager().AddPilot(p)
	}
	return &Runner{sess: sess, run: simtime.RunnersOf(sess.Clock())}, nil
}

// Run executes the pipeline DAG. Independent stages run concurrently; a
// stage failure fails its dependents transitively but lets independent
// branches finish. Services started by the pipeline's stages are terminated
// at pipeline end; a service the session started outside the pipeline
// outlives it. The report lists the stages in pipeline order.
//
// A stage starts on its own goroutine once its last dependency finished. On
// an auto-advancing virtual clock Run's caller must be registered with the
// clock; so is each stage goroutine. Run's own waits park on the clock, so
// every stamp is exact; a Pre or Post hook that waits for another goroutine
// waits through the clock too, on a simtime.Latch or Handoff. Stages ready at one
// instant start in the Go scheduler's order, so they replay exactly only if
// they draw on no shared source in the same instant.
func (r *Runner) Run(ctx context.Context, p *Pipeline) (*Report, error) {
	next, err := p.dependents()
	if err != nil {
		return nil, err
	}
	clock := r.sess.Clock()
	report := &Report{Pipeline: p.Name, Started: clock.Now()}

	// waiting counts a stage's unfinished dependencies, failed holds the
	// error of a failed one
	waiting := make([]int, len(p.Stages))
	failed := make([]error, len(p.Stages))
	for i, s := range p.Stages {
		waiting[i] = len(s.After)
	}
	report.Stages = make([]StageReport, len(p.Stages))
	svcs := make([][]*core.Service, len(p.Stages)) // started per stage
	var (
		mu        sync.Mutex // guards waiting, failed, remaining and finished
		remaining = len(p.Stages)
		finished  simtime.Latch
	)
	var start func(i int)
	start = func(i int) {
		r.run.Go(func() {
			s, rep := p.Stages[i], &report.Stages[i]
			*rep = StageReport{Stage: s.Name, Err: failed[i]}
			if rep.Err == nil {
				rep.Err = ctx.Err()
			}
			if rep.Err == nil {
				rep.Started = clock.Now()
				rep.Err = r.runStage(ctx, s, rep, &svcs[i])
				rep.Finished = clock.Now()
			}
			var ready []int
			mu.Lock()
			for _, n := range next[i] {
				if rep.Err != nil && failed[n] == nil {
					failed[n] = fmt.Errorf("workflow: stage %s: dependency %s failed: %w", p.Stages[n].Name, s.Name, rep.Err)
				}
				if waiting[n]--; waiting[n] == 0 {
					ready = append(ready, n)
				}
			}
			if remaining--; remaining == 0 {
				finished.Fire()
			}
			mu.Unlock()
			for _, n := range ready {
				start(n)
			}
		})
	}
	// roots from the descriptions, not from waiting: a started root
	// decrements waiting concurrently and starts its dependents itself
	for i, s := range p.Stages {
		if len(s.After) == 0 {
			start(i)
		}
	}
	if len(p.Stages) > 0 {
		mu.Lock()
		_ = finished.Wait(context.Background(), clock, &mu) // nil: the ctx never ends
		mu.Unlock()
	}
	report.Finished = clock.Now()

	// terminate services started by this run
	for _, started := range svcs {
		for _, inst := range started {
			_ = r.sess.ServiceManager().Terminate(inst.UID(), true)
		}
	}
	for _, st := range report.Stages {
		if st.Err != nil {
			return report, st.Err
		}
	}
	return report, nil
}

func (r *Runner) runStage(ctx context.Context, s *Stage, rep *StageReport, svcs *[]*core.Service) error {
	if s.Pre != nil {
		if err := s.Pre(ctx, r.sess); err != nil {
			return fmt.Errorf("workflow: stage %s pre-hook: %w", s.Name, err)
		}
	}
	sm := r.sess.ServiceManager()
	var svcUIDs []string
	for _, sd := range s.Services {
		inst, err := sm.Submit(sd)
		if err != nil {
			return fmt.Errorf("workflow: stage %s service %s: %w", s.Name, sd.Name, err)
		}
		*svcs = append(*svcs, inst)
		svcUIDs = append(svcUIDs, inst.UID())
	}
	if err := sm.WaitReady(ctx, svcUIDs...); err != nil {
		return fmt.Errorf("workflow: stage %s services: %w", s.Name, err)
	}
	rep.Services = len(svcUIDs)

	if len(s.Tasks) > 0 {
		descs := s.Tasks
		if s.Pilot != "" {
			descs = make([]spec.TaskDescription, len(s.Tasks))
			copy(descs, s.Tasks)
			for i := range descs {
				if descs[i].Pilot == "" {
					descs[i].Pilot = s.Pilot
				}
			}
		}
		tasks, err := r.sess.TaskManager().Submit(ctx, descs...)
		if err != nil {
			return fmt.Errorf("workflow: stage %s tasks: %w", s.Name, err)
		}
		rep.Tasks = len(tasks)
		if err := r.sess.TaskManager().Wait(ctx, tasks...); err != nil {
			return fmt.Errorf("workflow: stage %s: %w", s.Name, err)
		}
	}

	if s.Post != nil {
		if err := s.Post(ctx, r.sess); err != nil {
			return fmt.Errorf("workflow: stage %s post-hook: %w", s.Name, err)
		}
	}
	return nil
}

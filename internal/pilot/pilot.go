// Package pilot implements the pilot-job abstraction: acquiring a resource
// slice from a platform via a (simulated) batch system and running an
// agent on it. The agent owns the per-pilot runtime components of the
// paper's Fig. 2 — Stager, Scheduler, Executor — and drives tasks and
// service tasks through their state models. It is the agent's
// ServiceManager too: a service is a task with raised priority whose payload
// is a model server (Service), submitted, waited for and terminated through
// the pilot as a task is.
package pilot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/stager"
	"repro/internal/states"
)

// Errors.
var (
	ErrInsufficient   = errors.New("pilot: platform cannot satisfy the pilot request")
	ErrUnknownTask    = errors.New("pilot: unknown task")
	ErrUnknownService = errors.New("pilot: unknown service")
	ErrNotActive      = errors.New("pilot: not active")
	// ErrPilotStopped marks work its pilot stopped under: a task or service
	// still queued (not yet granted resources) at shutdown, or a service whose
	// bootstrap the shutdown overtook. The session re-routes such a task and
	// re-places such a service on another pilot.
	ErrPilotStopped = errors.New("pilot: pilot stopped before the work started")
)

// Config wires a Pilot.
type Config struct {
	Clock simtime.Clock
	Src   *rng.Source
	Net   *msgq.Network
	// Platform is the machine to acquire resources from.
	Platform *platform.Platform
	// BootTime models the batch system's pilot startup (queue wait
	// excluded); defaults to N(10s, 2s).
	BootTime rng.DurationDist
	// PublishOverhead is the endpoint-publication overhead of the pilot's
	// services, the Fig. 3 `publish` bootstrap component, sampled once per
	// publication (zero-valued: N(400ms, 120ms)).
	PublishOverhead rng.DurationDist
	// LaunchModel overrides the platform's launch model (nil: platform
	// default). Experiment harnesses that do not measure bootstrap use a
	// zero model to skip launch sleeps.
	LaunchModel *platform.LaunchModel
	// SchedPolicy names the agent scheduler's placement policy ("strict",
	// "backfill", "best-fit"; empty = strict). Each pilot gets a fresh
	// policy instance, so backfill starvation state is never shared.
	SchedPolicy string
	// Hooks are the session-side observers the pilot runs under from its
	// first transition (LAUNCHING) on; Rebind replaces them.
	Hooks Hooks
	// Attach registers the pilot in the package-level live registry so a
	// recovered session (core.Recover) can reattach to it by UID. Pilots
	// model remote machines that outlive a client crash; attachable pilots
	// must carry session-scoped UIDs to avoid cross-session collisions.
	Attach bool
}

// Hooks is the rebindable set of session-side observers of a pilot. A
// recovered session calls Rebind to point a surviving pilot's callbacks at
// the new session's Updater, journal and EndpointRegistry mirror; the
// machines themselves keep running undisturbed.
type Hooks struct {
	// Transition observes every state machine on the pilot — its own, its
	// tasks' and its service instances' — as a states.BatchCallback of the
	// entity's kind: what one To call committed, in one piece. A task's three
	// states before the agent scheduler are one call, and one journal write
	// to the session behind it.
	Transition func(e states.Entity, uid string, from states.State, steps []states.Record)
	// OnServicePublish observes every service endpoint publication on the
	// pilot with the publishing service, whose Endpoint is set: after the
	// publish overhead has been paid and strictly before the service turns
	// ACTIVE. The session mirrors it into its EndpointRegistry, so a service
	// that reports ready already resolves session-wide.
	OnServicePublish func(*Service)
}

// Pilot is one acquired resource slice plus its agent.
type Pilot struct {
	cfg     Config
	desc    spec.PilotDescription
	machine states.Machine
	// run is the clock's runnability accounting (nil off the virtual
	// clock): a goroutine the pilot starts for a task is registered
	// before it starts.
	run *simtime.Virtual

	// agent components
	nodes  []*platform.Node // the pilot's virtual node view
	allocs []*platform.Allocation
	sched  *scheduler.Scheduler
	router *scheduler.Router
	exec   *executor.Executor
	stage  *stager.Manager
	// svcSrc seeds each service's model and server, pubSrc its publish
	// overhead.
	svcSrc, pubSrc *rng.Source

	// stopped is closed when the pilot shuts down. Shutdown then fails every
	// task and service still waiting on a scheduler grant (see admit), and a
	// service bootstrap looks at it at each phase boundary.
	stopped  chan struct{}
	stopOnce sync.Once

	// hooks is the live session-side observer set. Machines register
	// trampolines (observe) that read it per event, so Rebind atomically
	// redirects every future callback to a recovered session. taskHook is the
	// one trampoline every task machine shares.
	hooks    atomic.Pointer[Hooks]
	taskHook states.BatchCallback
	// granted is p.grant, bound once: the continuation every task's grant runs.
	granted func(scheduler.Placement)

	mu          sync.Mutex
	seq, svcSeq int
	// uids spells the UIDs of tasks submitted without one, "<pilot>.task."
	// (uidPrefix) and the sequence number.
	uids      spec.UIDBlock
	uidPrefix string
	// tasks and services hold everything submitted, under its UID: none is
	// ever deleted, so a grant finds its task here.
	tasks    map[string]*Task
	services map[string]*Service
}

// Rebind redirects the pilot's session-side callbacks (state observers and
// the endpoint-publication mirror) to h. Crash recovery uses it to adopt a
// surviving pilot into the recovered session.
func (p *Pilot) Rebind(h Hooks) { p.hooks.Store(&h) }

// --- live registry ----------------------------------------------------------

// The package-level live registry models the "remote machines" side of a
// client crash: pilots launched with Config.Attach stay discoverable by
// UID, so core.Recover can reattach where a real runtime would redial the
// agent's network endpoint.
var (
	liveMu sync.Mutex
	live   = make(map[string]*Pilot)
)

// Lookup returns the attached live pilot with the given UID, if any.
func Lookup(uid string) (*Pilot, bool) {
	liveMu.Lock()
	defer liveMu.Unlock()
	p, ok := live[uid]
	return p, ok
}

// Task is one managed compute task.
type Task struct {
	desc    spec.TaskDescription
	machine states.Machine
	// ctx is the context the task was submitted under: its payload runs under
	// it, and its cancellation fails the task before the grant.
	ctx context.Context

	// stopCtx withdraws the cancellation watch of a task submitted under a
	// cancellable context (nil otherwise). Written before the grant
	// continuation is registered, read by whoever settles the task.
	stopCtx func() bool

	mu     sync.Mutex
	result executor.Result
	// enqueued fires once the task is past wait-pool admission: the agent
	// scheduler accepted its request (or the task settled without ever
	// reaching the scheduler). Session-level ordered handoffs gate on it
	// instead of polling the scheduler's snapshot.
	enqueued simtime.Latch
	// settled says the completion hooks are running or have run; done fires
	// when they have returned too: the task is final and every observer of the
	// final transition (profile, journal, publish) has returned. WaitTasks
	// waits on it.
	settled bool
	done    simtime.Latch
	// onDone is the first completion hook, moreDone any after it: a task has
	// one, its session's settle.
	onDone   func(*Task)
	moreDone []func(*Task)
}

// OnDone registers fn to run with the task once it has settled: on the
// goroutine that settles it (the task's own once it was granted resources;
// before that the submitter's, a cancelled context's or the pilot's shutdown)
// after the final transition's callbacks have returned, or at once, on the
// caller's, if it already has. Since fn is handed the task, one hook can serve
// every task: a session registers the same settle on all of its own.
func (t *Task) OnDone(fn func(*Task)) {
	t.mu.Lock()
	switch {
	case t.settled:
	case t.onDone == nil:
		t.onDone, fn = fn, nil
	default:
		t.moreDone, fn = append(t.moreDone, fn), nil
	}
	t.mu.Unlock()
	if fn != nil {
		fn(t)
	}
}

// settle ends the task's lifecycle: it runs the completion hooks, then
// releases WaitTasks.
func (t *Task) settle() {
	if t.stopCtx != nil {
		t.stopCtx()
	}
	t.mu.Lock()
	t.settled = true
	first, more := t.onDone, t.moreDone
	t.onDone, t.moreDone = nil, nil
	t.mu.Unlock()
	if first != nil {
		first(t)
	}
	for _, fn := range more {
		fn(t)
	}
	t.mu.Lock()
	t.done.Fire()
	t.mu.Unlock()
}

// Enqueued returns a channel closed once the task has been admitted to the
// agent scheduler's wait pool (or settled without reaching it). It is the
// scheduler-side acknowledgment ordered drain handoffs block on.
func (t *Task) Enqueued() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enqueued.Done()
}

func (t *Task) markEnqueued() {
	t.mu.Lock()
	t.enqueued.Fire()
	t.mu.Unlock()
}

// fail ends the task in FAILED with err and settles it. Whoever calls it owns
// the task: its driver before the grant continuation is registered, the one
// that took the continuation out of the router after.
func (t *Task) fail(err error) {
	t.mu.Lock()
	t.result.Err = err
	t.mu.Unlock()
	_ = t.machine.Fail()
	// A settled task is past the enqueue question: release anyone
	// waiting on the scheduler-side acknowledgment.
	t.markEnqueued()
	t.settle()
}

// UID returns the task UID.
func (t *Task) UID() string { return t.machine.UID() }

// State returns the task's current state.
func (t *Task) State() states.State { return t.machine.Current() }

// Result returns the execution result (valid once DONE or FAILED).
func (t *Task) Result() executor.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result
}

// Launch validates desc, acquires nodes from the platform (simulating the
// batch system), boots the agent, and returns an ACTIVE pilot.
func Launch(cfg Config, desc spec.PilotDescription) (*Pilot, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil || cfg.Src == nil || cfg.Net == nil || cfg.Platform == nil {
		return nil, errors.New("pilot: incomplete config")
	}
	if cfg.BootTime.IsZero() {
		cfg.BootTime = rng.NormalDuration(10*time.Second, 2*time.Second)
	}
	if cfg.PublishOverhead.IsZero() {
		cfg.PublishOverhead = defaultPublishOverhead()
	}
	policy, err := scheduler.PolicyByName(cfg.SchedPolicy)
	if err != nil {
		return nil, err
	}
	if desc.UID == "" {
		desc.UID = fmt.Sprintf("pilot.%s.%04d", desc.Platform, cfg.Src.Intn(10000))
	}

	p := &Pilot{
		cfg:       cfg,
		desc:      desc,
		run:       simtime.RunnersOf(cfg.Clock),
		stopped:   make(chan struct{}),
		uidPrefix: desc.UID + ".task.",
		tasks:     make(map[string]*Task),
		services:  make(map[string]*Service),
	}
	p.machine.Init(desc.UID, states.PilotModel(), cfg.Clock)
	p.Rebind(cfg.Hooks)
	p.machine.OnTransition(p.observe(states.EntityPilot))
	p.taskHook = p.observe(states.EntityTask)
	p.granted = p.grant
	if err := p.machine.To(states.PilotLaunching); err != nil {
		return nil, err
	}

	if err := p.acquire(); err != nil {
		_ = p.machine.Fail()
		return nil, err
	}

	// batch-system bootstrap
	if d := cfg.BootTime.Sample(cfg.Src); d > 0 {
		cfg.Clock.Sleep(d)
	}

	// assemble the agent
	launch := cfg.Platform.Launch
	if cfg.LaunchModel != nil {
		launch = *cfg.LaunchModel
	}
	p.router = scheduler.NewRouter()
	p.sched = scheduler.New(p.nodes, func(pl scheduler.Placement) {
		if !p.router.Route(pl) {
			// The waiter was withdrawn (task ctx done, or pilot stopping)
			// between grant and delivery: give the capacity back instead
			// of leaking it.
			p.sched.Release(pl.Alloc)
		}
	}, scheduler.WithPolicy(policy), scheduler.WithClock(cfg.Clock))
	p.exec = executor.New(cfg.Clock, cfg.Src.Derive(desc.UID+".exec"), launch)
	p.stage = stager.NewManager(cfg.Clock)
	p.svcSrc = cfg.Src.Derive(desc.UID + ".svc")
	p.pubSrc = cfg.Src.Derive(desc.UID + ".reg")

	if err := p.machine.To(states.PilotActive); err != nil {
		p.release()
		return nil, err
	}
	if cfg.Attach {
		liveMu.Lock()
		live[desc.UID] = p
		liveMu.Unlock()
	}
	return p, nil
}

// observe is the trampoline a machine of kind e on the pilot reports to: it
// hands what a To call committed to the Transition hook live at the time.
func (p *Pilot) observe(e states.Entity) states.BatchCallback {
	return func(uid string, from states.State, steps []states.Record) {
		if cb := p.hooks.Load().Transition; cb != nil {
			cb(e, uid, from, steps)
		}
	}
}

// acquire reserves whole nodes on the platform and builds the pilot's
// virtual node view. Platforms may mix node shapes (platform.NewMixed):
// a Nodes-based request takes the first available nodes regardless of
// shape, while a Cores/GPUs-based request accumulates capacity across
// whatever shapes the platform offers — skipping nodes that contribute
// nothing to the still-unmet dimensions, so a GPU request on a mixed
// campus does not pointlessly reserve its CPU-only partition.
//
// When every demanded dimension exists somewhere on the platform, this
// acquires exactly the nodes the previous ceil-over-one-spec
// computation selected on homogeneous platforms. One deliberate
// divergence: demanding a dimension no node shape provides (e.g. GPUs
// on a GPU-less machine) now fails with ErrInsufficient, where the old
// path silently granted an under-provisioned pilot whose scheduler
// would then reject every GPU task as unsatisfiable anyway.
func (p *Pilot) acquire() error {
	plat := p.cfg.Platform
	needNodes := p.desc.Nodes
	needCores, needGPUs := 0, 0
	if needNodes == 0 {
		needCores, needGPUs = p.desc.Cores, p.desc.GPUs
		if needCores <= 0 && needGPUs <= 0 {
			return ErrInsufficient
		}
	}
	gotCores, gotGPUs := 0, 0
	done := func() bool {
		if needNodes > 0 {
			return len(p.allocs) == needNodes
		}
		return gotCores >= needCores && gotGPUs >= needGPUs
	}
	for _, n := range plat.Nodes() {
		if done() {
			break
		}
		sp := n.Spec()
		if needNodes == 0 {
			contributes := (gotCores < needCores && sp.Cores > 0) ||
				(gotGPUs < needGPUs && sp.GPUs > 0)
			if !contributes {
				continue
			}
		}
		if a := n.TryAlloc(sp.Cores, sp.GPUs, sp.MemGB); a != nil {
			p.allocs = append(p.allocs, a)
			p.nodes = append(p.nodes, platform.NewNode(n.Name(), sp))
			gotCores += sp.Cores
			gotGPUs += sp.GPUs
		}
	}
	if !done() {
		got := len(p.allocs)
		p.release()
		if needNodes > 0 {
			return fmt.Errorf("%w: got %d/%d nodes on %s", ErrInsufficient, got, needNodes, plat.Name())
		}
		return fmt.Errorf("%w: got %d/%d cores, %d/%d gpus on %s",
			ErrInsufficient, gotCores, needCores, gotGPUs, needGPUs, plat.Name())
	}
	return nil
}

func (p *Pilot) release() {
	// Every stop path — shutdown, launch failure, fault injection — runs
	// through here, so this is also where an attached pilot leaves the
	// package-level live registry: a pilot that stops outside the Shutdown
	// happy path must not pin its object graph for the process lifetime.
	p.detach()
	for _, a := range p.allocs {
		a.Release()
	}
	p.allocs = nil
}

// detach removes the pilot from the package-level live registry
// (idempotent; a no-op for pilots launched without Config.Attach).
func (p *Pilot) detach() {
	liveMu.Lock()
	delete(live, p.desc.UID)
	liveMu.Unlock()
}

// UID returns the pilot UID.
func (p *Pilot) UID() string { return p.machine.UID() }

// State returns the pilot's lifecycle state.
func (p *Pilot) State() states.State { return p.machine.Current() }

// Nodes returns the pilot's virtual nodes.
func (p *Pilot) Nodes() []*platform.Node { return p.nodes }

// Shapes returns the node-shape composition of the pilot's allocation,
// as consecutive runs of identical specs in node order. Pilots on mixed
// platforms report more than one group; the scheduler underneath places
// across all of them.
func (p *Pilot) Shapes() []platform.NodeGroup { return platform.ShapesOf(p.nodes) }

// Stage returns the pilot's data manager.
func (p *Pilot) Stage() *stager.Manager { return p.stage }

// Scheduler returns the agent's continuous scheduler (exposed so callers
// can inspect wait depth, grant counts and the active placement policy).
func (p *Pilot) Scheduler() *scheduler.Scheduler { return p.sched }

// Snapshot returns the agent scheduler's live capacity/queue-depth view —
// the load probe session-level routers rank pilots on. See
// scheduler.Snapshot for what it carries and what it costs.
func (p *Pilot) Snapshot() scheduler.Snapshot { return p.sched.Snapshot() }

// Stopped returns a channel closed when the pilot shuts down. Tasks and
// services still waiting for placement at that point fail with
// ErrPilotStopped.
func (p *Pilot) Stopped() <-chan struct{} { return p.stopped }

// Network returns the message network the pilot is wired to. A recovered
// session adopts it so reattached services stay reachable at their
// published addresses.
func (p *Pilot) Network() *msgq.Network { return p.cfg.Net }

// Clock returns the clock the pilot runs on.
func (p *Pilot) Clock() simtime.Clock { return p.cfg.Clock }

// SubmitTask validates d and starts it on the task lifecycle. What comes
// before the agent scheduler runs on the caller: when SubmitTask returns, the
// task's request is in the wait pool, in submission order, and Enqueued is
// closed — or the task is already final, if it failed on the way (its pilot
// stopped under it). A task with input staging is the exception: it has
// something to wait for, and a goroutine to do it on, but its first
// transitions too are made (and journaled) before SubmitTask returns. Every
// other task holds a goroutine only from its grant to its end.
func (p *Pilot) SubmitTask(ctx context.Context, d spec.TaskDescription) (*Task, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if p.machine.Current() != states.PilotActive {
		return nil, fmt.Errorf("%w: pilot %s in %s", ErrNotActive, p.UID(), p.machine.Current())
	}
	p.mu.Lock()
	p.seq++
	if d.UID == "" {
		d.UID = p.uids.UID(p.uidPrefix, uint64(p.seq))
	}
	t := &Task{desc: d, ctx: ctx}
	t.machine.Init(d.UID, states.TaskModel(), p.cfg.Clock)
	t.machine.OnTransition(p.taskHook)
	p.tasks[d.UID] = t
	p.mu.Unlock()

	// TMGR_SCHEDULING → STAGING_INPUT → AGENT_SCHEDULING, made (and journaled)
	// in one piece when nothing is staged in between.
	chain := []states.State{states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling}
	staged := len(d.InputStaging) > 0
	if staged {
		chain = chain[:2]
	}
	switch err := t.machine.To(chain...); {
	case err != nil:
		t.fail(err)
	case staged:
		p.run.AddRunner() // register before spawn; stageIn deregisters
		go p.stageIn(t)
	default:
		p.admit(t)
	}
	return t, nil
}

// stageIn stages t's input, then takes it to the agent scheduler.
func (p *Pilot) stageIn(t *Task) {
	defer p.run.DoneRunner()
	_, err := p.stage.StageAll(t.desc.InputStaging)
	if err == nil {
		err = t.machine.To(states.TaskScheduling)
	}
	if err != nil {
		t.fail(err)
		return
	}
	p.admit(t)
}

// admit hands t, in AGENT_SCHEDULING, to the agent scheduler. The grant is a
// continuation, the pilot's one (grant): the scheduler's goroutine starts
// execute on one of the task's own. Until then the task is an entry in the
// router's table, and whoever takes it out — the grant, the pilot's shutdown,
// the context's cancellation, or admit itself — is the one that goes on with
// the task.
func (p *Pilot) admit(t *Task) {
	d, ctx := &t.desc, t.ctx
	if ctx.Done() != nil {
		t.stopCtx = context.AfterFunc(ctx, func() {
			if p.router.Cancel(d.UID) {
				t.fail(ctx.Err())
			}
		})
	}
	p.router.Then(d.UID, p.granted)
	err := p.sched.Submit(scheduler.Request{
		UID: d.UID, Cores: d.Cores, GPUs: d.GPUs, MemGB: d.MemGB, Priority: d.Priority,
	})
	if err != nil {
		if errors.Is(err, scheduler.ErrClosed) {
			// The scheduler shut down between task admission and enqueue:
			// same situation as a queued task at shutdown, same sentinel.
			err = fmt.Errorf("%w: %v", ErrPilotStopped, err)
		}
		if p.router.Cancel(d.UID) {
			t.fail(err)
		}
		return
	}
	// Wait-pool admission succeeded: acknowledge the enqueue. From here
	// the scheduler owns the request, so an ordered drain behind this task
	// can submit without racing the handoff order.
	t.markEnqueued()
	// Registered first, looked second: a shutdown that drained the table
	// before the continuation was in it closed stopped before that, and a
	// context done before its watch was armed reports it here. If Cancel
	// finds nothing, the grant or the drain has the task.
	select {
	case <-p.stopped:
		err = fmt.Errorf("%w: %s", ErrPilotStopped, p.UID())
	default:
		err = ctx.Err()
	}
	if err != nil && p.router.Cancel(d.UID) {
		t.fail(err)
	}
}

// grant is the continuation of every task's grant, run by the router on the
// scheduler's goroutine: it starts the granted task's own goroutine. Launch
// binds it once, as p.granted, so a task registers no closure of its own.
func (p *Pilot) grant(pl scheduler.Placement) {
	t, _ := p.Task(pl.Req.UID)
	p.run.AddRunner() // register before spawn; execute deregisters
	go p.execute(t, pl)
}

// execute is the task from its grant on: AGENT_EXECUTING → the payload →
// STAGING_OUTPUT → DONE (the last two in one piece when nothing is staged
// out), then the completion hooks.
func (p *Pilot) execute(t *Task, pl scheduler.Placement) {
	defer p.run.DoneRunner()
	d := &t.desc
	if err := t.machine.To(states.TaskExecuting); err != nil {
		p.sched.Release(pl.Alloc)
		t.fail(err)
		return
	}
	res := p.exec.Execute(t.ctx, p.sched, pl, *d)
	t.mu.Lock()
	t.result = res
	t.mu.Unlock()
	err := res.Err
	if err == nil {
		if len(d.OutputStaging) == 0 {
			err = t.machine.To(states.TaskStagingOutput, states.TaskDone)
		} else if err = t.machine.To(states.TaskStagingOutput); err == nil {
			if _, err = p.stage.StageAll(d.OutputStaging); err == nil {
				err = t.machine.To(states.TaskDone)
			}
		}
	}
	if err != nil {
		t.fail(err)
		return
	}
	t.settle()
}

// Task returns a managed task by UID.
func (p *Pilot) Task(uid string) (*Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tasks[uid]
	return t, ok
}

// Tasks returns every managed task.
func (p *Pilot) Tasks() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		out = append(out, t)
	}
	return out
}

// WaitTasks blocks until every listed task (all tasks when none listed)
// reaches a final state, or ctx expires. It returns the first failure. On a
// virtual clock the caller must be registered: it parks until the last of
// them settles.
func (p *Pilot) WaitTasks(ctx context.Context, uids ...string) error {
	if len(uids) == 0 {
		for _, t := range p.Tasks() {
			uids = append(uids, t.UID())
		}
	}
	var firstErr error
	for _, uid := range uids {
		t, ok := p.Task(uid)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownTask, uid)
		}
		t.mu.Lock()
		err := t.done.Wait(ctx, p.cfg.Clock, &t.mu)
		t.mu.Unlock()
		if err != nil {
			return err
		}
		if t.State() == states.TaskFailed && firstErr == nil {
			firstErr = t.Result().Err
			if firstErr == nil {
				firstErr = fmt.Errorf("pilot: task %s failed", uid)
			}
		}
	}
	return firstErr
}

// Shutdown terminates the agent and releases the pilot's resources.
// Services and tasks that were queued but never granted resources fail with
// ErrPilotStopped: Shutdown takes each out of the router's table and fails
// it, a task's completion hooks included, before it terminates the ACTIVE
// services, so a core one of them gives back finds nothing queued to start,
// and before it closes the scheduler, so none is left wedged on a closed
// wait pool.
//
// Concurrent callers have a single winner: the whole teardown runs once,
// and a loser returns ErrNotActive only after the winner has finished, so
// no caller observes a half-torn pilot.
func (p *Pilot) Shutdown() error {
	if p.machine.Current() != states.PilotActive {
		return fmt.Errorf("%w: %s", ErrNotActive, p.machine.Current())
	}
	// a loser blocks in Do until the winner is through, then returns this
	err := fmt.Errorf("%w: lost a concurrent shutdown", ErrNotActive)
	p.stopOnce.Do(func() {
		// Leave the live registry before the stop signal propagates, so a
		// concurrent Recover cannot adopt a pilot that is mid-teardown.
		p.detach()
		close(p.stopped)
		// Services first, then tasks, each in UID order, which is submission
		// order: where the session re-places them, they queue as they queued
		// here.
		var tasks []*Task
		for _, uid := range p.router.Drain() {
			if s, ok := p.Service(uid); ok {
				s.fail(fmt.Errorf("%w: %s while scheduling", ErrPilotStopped, uid))
			} else {
				t, _ := p.Task(uid)
				tasks = append(tasks, t)
			}
		}
		stopped := fmt.Errorf("%w: %s", ErrPilotStopped, p.UID())
		for _, t := range tasks {
			t.fail(stopped)
		}
		for _, s := range p.Services() {
			if s.State() == states.ServiceActive {
				_ = s.terminate(false)
			}
		}
		p.sched.Close()
		p.release()
		err = p.machine.To(states.PilotDone)
	})
	return err
}

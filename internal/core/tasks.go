package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/router"
	"repro/internal/spec"
	"repro/internal/states"
)

// TaskManager submits compute tasks across the session's pilots. Which
// pilot a task binds to is the pluggable Router's decision (default:
// round-robin, the seed dispatch; see SessionConfig.Router), made one
// task at a time against the pilots' live capacity snapshots — the
// session-level half of the pilot abstraction's late binding.
//
// Submission is transactional per description: Submit returns the
// successfully submitted prefix together with the error that stopped the
// batch. Validation failures and routing rejections stop the batch
// before any routing state moves, so resubmitting the remainder
// continues the sequence exactly where it stopped.
//
// Tasks whose pilot shuts down before granting them resources are
// re-routed to another active pilot; when none is attached they park in
// a session-level overflow pool that AddPilot drains, so late-bound work
// survives pilot churn. Tasks pinned to a pilot (TaskDescription.Pilot)
// and tasks already executing are not re-routed: the former fail with
// pilot.ErrPilotStopped, the latter keep their own lifecycle.
type TaskManager struct {
	sess   *Session
	placer // pilots, router, closed, and mu, which also guards the tables below

	seq      int
	tasks    map[string]*Task
	overflow map[string]*Task
}

// Task is a session-level task handle. It follows one logical task
// across pilot re-routes: the underlying pilot task may be replaced when
// a pilot dies, but the UID, description and completion channel stay.
type Task struct {
	handle
	tm *TaskManager
	// desc and ctx are fixed at submission; re-dispatches reuse both.
	desc spec.TaskDescription
	ctx  context.Context

	// guarded by handle.mu
	cur      *pilot.Task
	reroutes int
	// owed is what the dispatch in progress has yet to journal: set by
	// dispatch, taken by whichever writes it, the task's first chain of
	// transitions or dispatch itself.
	owed owed
}

// owed names the records a journaled dispatch writes ahead of the task's
// transitions: the bind to pilot ("": nothing is owed) and, with desc, the
// description before it.
type owed struct {
	pilot string
	desc  bool
}

// newTask returns the unsettled handle for d, whose UID is final.
func (tm *TaskManager) newTask(ctx context.Context, d spec.TaskDescription) *Task {
	return &Task{handle: handle{uid: d.UID}, tm: tm, desc: d, ctx: ctx}
}

// takeOwed returns what t's dispatch has yet to journal and takes it off the
// handle: whoever gets a pilot writes the records.
func (t *Task) takeOwed() owed {
	t.mu.Lock()
	o := t.owed
	t.owed = owed{}
	t.mu.Unlock()
	return o
}

// journalFirst journals the first chain of transitions a pilot-level task of
// this session made, together with what the dispatch that submitted it owes:
// description, bind and transitions with one write, in that order. dispatch
// runs the chain on its own goroutine, inside SubmitTask, so the records are in
// the journal before the agent scheduler sees the request. A task this manager
// did not dispatch (or whose dispatch owes nothing) journals the chain alone.
func (tm *TaskManager) journalFirst(jw *journal.Writer, uid string, from states.State, steps []states.Record) {
	tm.mu.Lock()
	t := tm.tasks[uid]
	tm.mu.Unlock()
	var o owed
	if t != nil {
		o = t.takeOwed()
	}
	if o.pilot == "" {
		_ = jw.AppendTransitions("task", uid, from, steps)
		return
	}
	var desc *journal.TaskBody
	if o.desc {
		desc = &journal.TaskBody{UID: uid, Desc: t.desc}
	}
	_ = jw.AppendDispatch(desc, journal.BindBody{Entity: "task", UID: uid, Pilot: o.pilot}, from, steps)
}

// Description returns the submitted description.
func (t *Task) Description() spec.TaskDescription { return t.desc }

// State returns the task's current lifecycle state. A task parked in the
// session overflow pool (no pilot bound) reports TMGR_SCHEDULING.
func (t *Task) State() states.State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		return t.cur.State()
	}
	if t.finished {
		if t.err != nil {
			return states.TaskFailed
		}
		return states.TaskDone
	}
	return states.TaskTmgrScheduling
}

// Result returns the execution result (valid once Done() is closed).
func (t *Task) Result() executor.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		return t.cur.Result()
	}
	return executor.Result{Err: t.err}
}

// Reroutes counts how many times the session re-bound this task to a new
// pilot after its previous one shut down.
func (t *Task) Reroutes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reroutes
}

// AddPilot attaches a pilot to the task manager and offers it to every
// task parked in the overflow pool.
func (tm *TaskManager) AddPilot(p *pilot.Pilot) {
	tm.mu.Lock()
	tm.pilots = append(tm.pilots, p)
	pending := tm.takeOverflow()
	rt := tm.rt
	tm.mu.Unlock()
	// Drain deterministically: submission order (UIDs embed the session
	// sequence number), re-ordered by the router's own ranking when it has
	// one — capacity-fit drains fits-now tasks first, so the new pilot
	// starts real work instead of queueing a blocked head in front of it.
	sortTasks(pending)
	if ranker, ok := rt.(router.Ranker); ok && len(pending) > 1 {
		descs := make([]spec.TaskDescription, len(pending))
		for i, t := range pending {
			descs[i] = t.desc
		}
		// Accept the ranking only if it is a genuine permutation: an
		// out-of-range or duplicated index from a custom Ranker must not
		// panic the drain or dispatch a task twice while dropping another.
		ranked := make([]*Task, 0, len(pending))
		seen := make([]bool, len(pending))
		valid := true
		for _, i := range ranker.RankDrain(p, descs) {
			if i < 0 || i >= len(pending) || seen[i] {
				valid = false
				break
			}
			seen[i] = true
			ranked = append(ranked, pending[i])
		}
		if valid && len(ranked) == len(pending) {
			pending = ranked
		}
	}
	for _, t := range pending {
		// Ordered handoff: wait for each drained task to reach an agent
		// scheduler before dispatching the next, so the drain order is
		// also the scheduler arrival order — without it the per-task
		// dispatch goroutines race and the ranking (or the seed's
		// submission order) would only hold probabilistically.
		tm.redispatch(t, true)
	}
}

// Submit routes and dispatches descriptions over the attached pilots,
// one at a time in order. On error it returns the successfully submitted
// prefix together with the error; descriptions after the failure are
// neither submitted nor accounted in any router state, so a retry of the
// remainder continues the task→pilot sequence unperturbed.
func (tm *TaskManager) Submit(ctx context.Context, descs ...spec.TaskDescription) ([]*Task, error) {
	tasks := make([]*Task, 0, len(descs))
	for _, d := range descs {
		t, err := tm.submitOne(ctx, d)
		if err != nil {
			return tasks, err
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// submitOne validates, registers, places and dispatches a single
// description. Validation and the duplicate check run before placement so
// a malformed description cannot advance the router's selection state;
// only validation failures, routing rejections and a dead pinned pilot
// surface to the caller (see placer.place).
func (tm *TaskManager) submitOne(ctx context.Context, d spec.TaskDescription) (*Task, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	tm.mu.Lock()
	if d.UID == "" {
		tm.seq++
		d.UID = spec.TaskUID(tm.sess.uid, tm.seq)
	}
	if _, dup := tm.tasks[d.UID]; dup {
		tm.mu.Unlock()
		return nil, fmt.Errorf("core: duplicate task UID %s", d.UID)
	}
	t := tm.newTask(ctx, d)
	tm.tasks[d.UID] = t
	tm.mu.Unlock()

	_, err := tm.place(&t.desc, nil, func(p *pilot.Pilot) error {
		// The description is journaled once routing has succeeded; a dispatch
		// retry re-appends it and replay skips the duplicate.
		_, err := tm.dispatch(t, p, true)
		return err
	})
	if err != nil {
		// Seal and drop the handle: a concurrent Wait or Tasks snapshot may
		// already hold it.
		t.finish(err)
		tm.mu.Lock()
		delete(tm.tasks, t.uid)
		tm.mu.Unlock()
		return nil, err
	}
	return t, nil
}

// dispatch submits the task to p and registers its settle. The binding (and
// with desc the description before it) is journaled before the agent scheduler
// sees the task: it rides on the handle into SubmitTask, whose first chain of
// transitions is made on this goroutine and journals all of them with one
// write (journalFirst). A SubmitTask that made no transition leaves them to
// dispatch, so nothing owed outlives the call. A crash in between replays as a
// task bound to a pilot that never heard of it, or not to the end, which
// Recover detects (no pilot-level handle under the UID, or not a final one)
// and re-dispatches or re-pins.
func (tm *TaskManager) dispatch(t *Task, p *pilot.Pilot, desc bool) (*pilot.Task, error) {
	jw := tm.sess.jw
	if jw != nil {
		t.mu.Lock()
		t.owed = owed{pilot: p.UID(), desc: desc}
		t.mu.Unlock()
	}
	pt, err := p.SubmitTask(t.ctx, t.desc)
	if jw != nil {
		if o := t.takeOwed(); o.pilot != "" {
			if o.desc {
				_ = jw.AppendTask(journal.TaskBody{UID: t.uid, Desc: t.desc})
			}
			_ = jw.AppendBind(journal.BindBody{Entity: "task", UID: t.uid, Pilot: o.pilot})
		}
	}
	if err != nil {
		return nil, err
	}
	tm.follow(t, pt, p)
	return pt, nil
}

// follow binds t to its pilot-level task and hands the pilot the settle.
// The bind comes first: a hook that fires at once (pt already final, as
// Recover may find it) re-routes over it, never the other way round.
func (tm *TaskManager) follow(t *Task, pt *pilot.Task, p *pilot.Pilot) {
	t.mu.Lock()
	t.cur, t.p = pt, p
	t.mu.Unlock()
	pt.OnDone(func() { tm.settle(t, pt) })
}

// settle is the pilot-level task's completion hook. The pilot runs it once,
// when pt is final and its last transition is profiled, journaled and
// published — so a Wait that returns finds the DONE record in the journal.
// DONE finishes the logical task, a queued-at-shutdown failure
// (pilot.ErrPilotStopped, unpinned) re-enters routing, anything else fails
// it.
func (tm *TaskManager) settle(t *Task, pt *pilot.Task) {
	if pt.State() == states.TaskDone {
		t.finish(nil)
		return
	}
	err := pt.Result().Err
	if errors.Is(err, pilot.ErrPilotStopped) && t.desc.Pilot == "" {
		tm.redispatch(t, false)
		return
	}
	if err == nil {
		err = fmt.Errorf("core: task %s failed", t.uid)
	}
	t.finish(err)
}

// redispatch re-routes a task whose pilot stopped before granting it
// resources (or, in Recover, died with the client): to another active
// pilot when one can take it, into the overflow pool when none is live, or
// to failure when no attached pilot's shapes could ever fit it
// (shape-aware routers reject it the same way they would at submit). With
// ordered set (the AddPilot drain), it additionally blocks until the
// dispatched task's request has reached the destination pilot's agent
// scheduler, so consecutive drain dispatches arrive in drain order.
func (tm *TaskManager) redispatch(t *Task, ordered bool) {
	t.mu.Lock()
	t.cur, t.p = nil, nil
	t.reroutes++
	t.mu.Unlock()

	for {
		_, err := tm.place(&t.desc, nil, func(p *pilot.Pilot) error {
			pt, err := tm.dispatch(t, p, false)
			if err == nil && ordered {
				tm.awaitEnqueued(t, pt, p)
			}
			return err
		})
		if err == nil {
			return
		}
		if !errors.Is(err, errNoLivePilots) {
			t.finish(err)
			return
		}
		if tm.park(t) {
			return
		}
	}
}

// park puts t in the overflow pool for AddPilot to drain. It declines when
// a pilot arrived or the session closed since place found none live: the
// caller places again, which dispatches or settles t.
func (tm *TaskManager) park(t *Task) bool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.closed || len(tm.live(nil)) > 0 {
		return false
	}
	tm.overflow[t.uid] = t
	return true
}

// awaitEnqueued blocks until t's resource request has reached p's agent
// scheduler — the pilot task acks its enqueue (after staging, right when
// the scheduler accepts the request), so consecutive ordered dispatches
// arrive in drain order without polling wall-clock time. It also returns
// when t settles on a failure path that never reaches the scheduler or
// the pilot stops: both paths close their channel, so the select cannot
// stall the remaining drain.
func (tm *TaskManager) awaitEnqueued(t *Task, pt *pilot.Task, p *pilot.Pilot) {
	select {
	case <-pt.Enqueued():
	case <-t.Done():
	case <-p.Stopped():
	}
}

// takeOverflow empties the overflow pool. Callers hold tm.mu.
func (tm *TaskManager) takeOverflow() []*Task {
	pending := make([]*Task, 0, len(tm.overflow))
	for _, t := range tm.overflow {
		pending = append(pending, t)
	}
	clear(tm.overflow)
	return pending
}

// close fails every overflow-pooled task and stops further submissions.
func (tm *TaskManager) close() {
	tm.mu.Lock()
	tm.closed = true
	pending := tm.takeOverflow()
	tm.mu.Unlock()
	for _, t := range pending {
		t.finish(ErrSessionClosed)
	}
}

// Wait blocks until the listed tasks reach a final state (following them
// across re-routes); with none listed it waits for every task submitted
// through this manager so far. It returns the first task failure, or the
// context error if ctx expires first.
func (tm *TaskManager) Wait(ctx context.Context, tasks ...*Task) error {
	if len(tasks) == 0 {
		tasks = tm.Tasks()
	}
	var firstErr error
	for _, t := range tasks {
		if t.tm != tm {
			return fmt.Errorf("core: task %s not owned by this manager", t.UID())
		}
		select {
		case <-t.Done():
			if err := t.Err(); err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return firstErr
}

// Tasks returns every task submitted through this manager, in submission
// order.
func (tm *TaskManager) Tasks() []*Task {
	tm.mu.Lock()
	out := make([]*Task, 0, len(tm.tasks))
	for _, t := range tm.tasks {
		out = append(out, t)
	}
	tm.mu.Unlock()
	sortTasks(out)
	return out
}

// Overflow reports how many tasks are parked in the session overflow
// pool awaiting an active pilot.
func (tm *TaskManager) Overflow() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.overflow)
}

// sortTasks orders tasks by UID — submission order for manager-assigned
// UIDs, which embed the session sequence number.
func sortTasks(tasks []*Task) {
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].uid < tasks[j].uid })
}

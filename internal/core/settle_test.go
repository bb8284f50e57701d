package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// pilotTask returns the pilot-level task t is bound to.
func pilotTask(t *Task) *pilot.Task {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// gatedDescs returns n one-core tasks that report on started and block in
// their payload until release closes.
func gatedDescs(n int, started chan<- struct{}, release <-chan struct{}) []spec.TaskDescription {
	descs := make([]spec.TaskDescription, n)
	for i := range descs {
		descs[i] = spec.TaskDescription{Name: "gated", Cores: 1, Func: func(context.Context) error {
			started <- struct{}{}
			<-release
			return nil
		}}
	}
	return descs
}

// TestTaskSettleSingleWinnerAfterJournalRace: a task is settled by its pilot's
// completion hook, which runs after the Updater has journaled the final
// transition. So the moment Wait returns the journal holds all eight records
// of every task (and the seven of the session and its two pilots), with
// nothing to poll for, and every task was settled once, where it was placed.
func TestTaskSettleSingleWinnerAfterJournalRace(t *testing.T) {
	const n = 400
	s, err := NewSession(SessionConfig{
		Seed:              7,
		Clock:             simtime.NewScaled(1e6, DefaultOrigin),
		FastBoot:          true,
		JournalPath:       filepath.Join(t.TempDir(), "settle.wal"),
		JournalFlushEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "hetero", Nodes: 32})
		if err != nil {
			t.Fatal(err)
		}
		s.TaskManager().AddPilot(p)
	}
	descs := make([]spec.TaskDescription, n)
	for i := range descs {
		descs[i] = spec.TaskDescription{Name: "settle", Cores: 1 + i%4, Func: func(context.Context) error { return nil }}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tasks, err := s.TaskManager().Submit(ctx, descs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
	if appends, _ := s.Journal().Stats(); appends != 8*n+7 {
		t.Fatalf("journal holds %d records when Wait returns, want %d", appends, 8*n+7)
	}
	for _, task := range tasks {
		if task.State() != states.TaskDone || task.Err() != nil || task.Reroutes() != 0 {
			t.Fatalf("task %s: %s, err %v, %d reroutes", task.UID(), task.State(), task.Err(), task.Reroutes())
		}
	}
}

// TestTaskGoroutineBudget: a task in flight holds the pilot's goroutine that
// drives it and none of the session's, whose settle the pilot calls. A
// session goroutine following each task would double the count.
func TestTaskGoroutineBudget(t *testing.T) {
	const n, slack = 1000, 16
	s, err := NewSession(SessionConfig{Seed: 7, Clock: simtime.NewScaled(1e6, DefaultOrigin), FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "hetero", Nodes: 32}) // 4 096 cores
	if err != nil {
		t.Fatal(err)
	}
	s.TaskManager().AddPilot(p)
	started, release := make(chan struct{}, n), make(chan struct{})
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tasks, err := s.TaskManager().Submit(ctx, gatedDescs(n, started, release)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	if held := runtime.NumGoroutine() - base; held > n+slack {
		t.Errorf("%d tasks blocked in their payload hold %d goroutines, budget %d", n, held, n+slack)
	}
	close(release)
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
}

// TestTaskSettleHookSeesDoneRecord: a completion hook registered while the
// task runs fires once the DONE record is in the journal file, not merely
// once the task is DONE; one registered on a settled task fires at once.
func TestTaskSettleHookSeesDoneRecord(t *testing.T) {
	s, jp := newJournaledSession(t, 7)
	defer s.Close()
	p := submitAttachedPilot(t, s)
	started, release := make(chan struct{}, 1), make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := s.TaskManager().Submit(ctx, gatedDescs(1, started, release)...)
	if err != nil {
		t.Fatal(err)
	}
	offClock(s, func() { <-started })
	pt := pilotTask(tasks[0])
	fired := 0
	pt.OnDone(func(*pilot.Task) {
		fired++
		snap, _, err := journal.ReplayFile(jp)
		if err != nil || len(snap.Tasks) != 1 || snap.Tasks[0].State != states.TaskDone {
			t.Errorf("journal file when the hook runs: %+v, %v, want the task DONE", snap, err)
		}
	})
	close(release)
	if err := p.WaitTasks(ctx, pt.UID()); err != nil { // returns when the hooks have
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("the hook ran %d times", fired)
	}
	pt.OnDone(func(*pilot.Task) { fired++ })
	if fired != 2 {
		t.Fatal("a hook registered on a settled task did not run at once")
	}
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownReroutesQueuedSingleWinnerRace: a pilot that shuts down with 200
// unpinned tasks queued behind a holder hands every one of them to the
// session exactly once, through its completion hook and on the task's own
// goroutine; each lands on the surviving pilot and finishes there.
func TestShutdownReroutesQueuedSingleWinnerRace(t *testing.T) {
	const n = 200
	s := newSession(t, 100000)
	tm := s.TaskManager()
	a, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(a)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	started, release := make(chan struct{}, 1), make(chan struct{})
	holder := gatedDescs(1, started, release)
	holder[0].Cores = 64 // the whole node
	held, err := tm.Submit(ctx, holder...)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	descs := make([]spec.TaskDescription, n)
	for i := range descs {
		descs[i] = spec.TaskDescription{Name: "queued", Cores: 1, Func: func(context.Context) error { return nil }}
	}
	queued, err := tm.Submit(ctx, descs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range queued {
		<-pilotTask(task).Enqueued()
	}
	b, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(b)
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(ctx, queued...); err != nil {
		t.Fatalf("re-routed tasks: %v", err)
	}
	for _, task := range queued {
		if task.State() != states.TaskDone || task.Pilot() != b.UID() || task.Reroutes() != 1 {
			t.Fatalf("task %s: %s on %s after %d reroutes, want DONE on %s after 1",
				task.UID(), task.State(), task.Pilot(), task.Reroutes(), b.UID())
		}
	}
	close(release)
	<-held[0].Done() // executing at the shutdown: it keeps its own lifecycle
	if held[0].Reroutes() != 0 {
		t.Fatalf("the executing holder was re-routed %d times", held[0].Reroutes())
	}
}

// TestPreGrantFailureReroutedOnce: a task bound to a pilot whose agent
// scheduler closed under it is final when that pilot's SubmitTask returns.
// The settle hook, registered on a final task, fires at once: the session
// re-routes the task from the submitter, once, and Submit returns it bound to
// the pilot that runs it.
func TestPreGrantFailureReroutedOnce(t *testing.T) {
	s, jp := newJournaledSession(t, 7)
	defer s.Close()
	pilots := map[string]*pilot.Pilot{}
	for i := 0; i < 2; i++ {
		p := submitAttachedPilot(t, s)
		pilots[p.UID()] = p
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	desc := spec.TaskDescription{Name: "probe", Cores: 1, Func: func(context.Context) error { return nil }}
	probe, err := s.TaskManager().Submit(ctx, desc)
	if err != nil {
		t.Fatal(err)
	}
	survivor := probe[0].Pilot()
	for uid, p := range pilots {
		if uid != survivor { // round-robin binds the next task here
			p.Scheduler().Close()
		}
	}
	tasks, err := s.TaskManager().Submit(ctx, desc)
	if err != nil {
		t.Fatal(err)
	}
	task := tasks[0]
	if task.Reroutes() != 1 || task.Pilot() != survivor {
		t.Fatalf("when Submit returned: %d reroutes, bound to %q, want 1 and %q", task.Reroutes(), task.Pilot(), survivor)
	}
	if err := s.TaskManager().Wait(ctx, probe[0], task); err != nil {
		t.Fatal(err)
	}
	if task.State() != states.TaskDone || task.Reroutes() != 1 {
		t.Fatalf("task %s after %d reroutes", task.State(), task.Reroutes())
	}
	// The journal tells the same story: bound twice, failed once, done once.
	snap, stats, err := journal.ReplayFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if ts := snap.Tasks[1]; ts.State != states.TaskDone || ts.Pilot != survivor || stats.Skipped != 0 {
		t.Fatalf("replayed %+v with %d records skipped, want DONE on %s and none", ts, stats.Skipped, survivor)
	}
}

// TestRecoverSettlesReattachedThroughHook: Recover re-pins a task still in a
// surviving pilot's hands by registering the new session's settle with it.
// Registered while the task runs, it settles the task when it ends; registered
// late, on a task that ended while no client was watching, it settles the
// task before Recover returns.
func TestRecoverSettlesReattachedThroughHook(t *testing.T) {
	for _, late := range []bool{false, true} {
		name := "running"
		if late {
			name = "ended-unwatched"
		}
		t.Run(name, func(t *testing.T) {
			const n = 4
			s, jp := newJournaledSession(t, 7)
			p1, p2 := submitAttachedPilot(t, s), submitAttachedPilot(t, s)
			started, release := make(chan struct{}, n), make(chan struct{})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := s.TaskManager().Submit(ctx, gatedDescs(n, started, release)...); err != nil {
				t.Fatal(err)
			}
			offClock(s, func() {
				for i := 0; i < n; i++ {
					<-started
				}
			})
			s.Abandon()
			if late {
				close(release)
				for _, p := range []*pilot.Pilot{p1, p2} {
					if err := p.WaitTasks(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			s2, rep, err := Recover(jp, RecoverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if len(rep.TasksReattached) != n {
				t.Fatalf("TasksReattached = %v, want all %d", rep.TasksReattached, n)
			}
			tasks := s2.TaskManager().Tasks()
			if late {
				for _, task := range tasks {
					select {
					case <-task.Done():
					default:
						t.Fatalf("task %s not settled when Recover returned", task.UID())
					}
				}
			} else {
				close(release)
			}
			if err := s2.TaskManager().Wait(ctx, tasks...); err != nil {
				t.Fatal(err)
			}
			for _, task := range tasks {
				if task.State() != states.TaskDone || task.Reroutes() != 0 {
					t.Fatalf("task %s: %s after %d reroutes", task.UID(), task.State(), task.Reroutes())
				}
			}
		})
	}
}

// TestWaitOnVirtualClock: on an auto-advancing clock Wait parks its
// registered caller and the settle hands it its wake token, so it returns at
// the instant the task reached DONE. A caller whose ctx has ended takes its
// token back: the clock stands still while it runs on, the task still due.
func TestWaitOnVirtualClock(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	errc := make(chan error, 1)
	clock.Go(func() { errc <- waitOnVirtualClock(clock) })
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func waitOnVirtualClock(clock *simtime.Virtual) error {
	s, err := NewSession(SessionConfig{Seed: 3, Clock: clock, FastBoot: true})
	if err != nil {
		return err
	}
	defer s.Close()
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		return err
	}
	rec := recordTransitions(s, p)
	tm := s.TaskManager()
	tm.AddPilot(p)
	tasks, err := tm.Submit(context.Background(), spec.TaskDescription{Name: "hour", Cores: 1, Duration: rng.ConstDuration(time.Hour)})
	if err != nil {
		return err
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tm.Wait(cancelled, tasks...); err != context.Canceled {
		return fmt.Errorf("Wait on a cancelled ctx = %v, want context.Canceled", err)
	}
	at := clock.Now()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if got := clock.Now(); !got.Equal(at) {
		return fmt.Errorf("clock moved %v while the cancelled waiter was runnable", got.Sub(at))
	}

	if err := tm.Wait(context.Background(), tasks...); err != nil {
		return err
	}
	now := clock.Now()
	steps := rec.of(tasks[0].UID())
	if len(steps) == 0 || steps[len(steps)-1].State != states.TaskDone {
		return fmt.Errorf("task %s: transitions %v end before DONE", tasks[0].UID(), steps)
	}
	done := steps[len(steps)-1].At
	if !now.Equal(done) || done.Sub(at) < time.Hour {
		return fmt.Errorf("Wait returned at %v, DONE at %v (cancelled wait at %v)", now.Sub(DefaultOrigin), done.Sub(DefaultOrigin), at.Sub(DefaultOrigin))
	}
	return nil
}

// TestPublishFansOutToJournalAndUpdates: every transition a pilot commits
// reaches both of its observers. The pilot's transition hook carries the
// task's whole chain in order, stamped in time order, and the journal,
// replayed, ends the task where the hook does.
func TestPublishFansOutToJournalAndUpdates(t *testing.T) {
	s, jp := newJournaledSession(t, 11)
	t.Cleanup(s.Close)
	p := submitAttachedPilot(t, s)
	rec := recordTransitions(s, p)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := s.TaskManager().Submit(ctx, spec.TaskDescription{Name: "fan", Cores: 1, Duration: rng.ConstDuration(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
	var got []states.State
	var last time.Time
	for _, st := range rec.of(tasks[0].UID()) {
		if st.entity != states.EntityTask {
			t.Fatalf("transition of %s %s, want only task %s", st.entity, st.uid, tasks[0].UID())
		}
		if st.At.Before(last) {
			t.Fatalf("%s stamped %v, before the previous transition's %v", st.State, st.At, last)
		}
		got, last = append(got, st.State), st.At
	}
	want := []states.State{states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling,
		states.TaskExecuting, states.TaskStagingOutput, states.TaskDone}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transition chain %v, want %v", got, want)
	}
	s.Close()
	snap, stats, err := journal.ReplayFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tasks) != 1 || stats.Skipped != 0 {
		t.Fatalf("replayed %d tasks with %d records skipped, want 1 and none", len(snap.Tasks), stats.Skipped)
	}
	if ts := snap.Tasks[0]; ts.State != states.TaskDone || ts.Pilot != p.UID() {
		t.Fatalf("journal ends the task %s on %q, want DONE on %q", ts.State, ts.Pilot, p.UID())
	}
}

// TestTasksInSubmissionOrderPastSixDigits: a manager's UIDs pad its sequence
// number to six digits and grow a seventh past 999 999, and Tasks (like the
// overflow drain, which sorts the same way) still lists them in submission
// order: a UID compares by its length first, then its bytes.
func TestTasksInSubmissionOrderPastSixDigits(t *testing.T) {
	s, _ := newJournaledSession(t, 7)
	defer s.Close()
	submitAttachedPilot(t, s)
	tm := s.TaskManager()
	tm.mu.Lock()
	tm.seq = 999_997
	tm.mu.Unlock()
	descs := make([]spec.TaskDescription, 4)
	for i := range descs {
		descs[i] = spec.TaskDescription{Name: "wide", Cores: 1, Func: func(context.Context) error { return nil }}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := tm.Submit(ctx, descs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for i, task := range tasks {
		if uid := fmt.Sprintf("%s.task.%06d", s.uid, 999_998+i); task.UID() != uid {
			t.Fatalf("task %d has UID %s, want %s", i, task.UID(), uid)
		}
		want = append(want, task.UID())
	}
	for _, task := range tm.Tasks() {
		got = append(got, task.UID())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Tasks() = %v, want submission order %v", got, want)
	}
}

// TestSettleDropsUnheldUID: the manager's one settle hook finds the handle by
// the UID of the pilot-level task it is handed. A handle the manager no
// longer holds (submitOne's failure path deletes its handle) is left alone
// when its pilot-level task settles, and so is a pilot-level task the manager
// never dispatched.
func TestSettleDropsUnheldUID(t *testing.T) {
	s, _ := newJournaledSession(t, 7)
	defer s.Close()
	p := submitAttachedPilot(t, s)
	tm := s.TaskManager()
	started, release := make(chan struct{}, 1), make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := tm.Submit(ctx, gatedDescs(1, started, release)...)
	if err != nil {
		t.Fatal(err)
	}
	offClock(s, func() { <-started })
	dropped := tasks[0]
	tm.mu.Lock()
	delete(tm.tasks, dropped.UID())
	tm.mu.Unlock()
	close(release)
	if err := p.WaitTasks(ctx, pilotTask(dropped).UID()); err != nil { // returns when the hooks have
		t.Fatal(err)
	}
	select {
	case <-dropped.Done():
		t.Fatalf("a handle the manager dropped was settled: %v", dropped.Err())
	default:
	}

	foreign, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "foreign", Cores: 1, Func: func(context.Context) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	foreign.OnDone(tm.settled)
	if err := p.WaitTasks(ctx, foreign.UID()); err != nil {
		t.Fatal(err)
	}
	if held := tm.Tasks(); len(held) != 0 {
		t.Fatalf("the manager holds %d tasks after settling ones it does not hold", len(held))
	}
}

// TestSettleReadsTheTaskItIsGiven: the settle hook judges the logical task by
// the pilot-level task it is handed, not by whichever one the handle is bound
// to. Two pilot-level tasks share a UID on two pilots, one DONE and one
// FAILED: settling the handle, bound to the failed one, with the DONE one
// finishes it without an error.
func TestSettleReadsTheTaskItIsGiven(t *testing.T) {
	s, _ := newJournaledSession(t, 7)
	defer s.Close()
	a, b := submitAttachedPilot(t, s), submitAttachedPilot(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	boom := errors.New("boom")
	const uid = "shared.task.000001"
	failed, err := a.SubmitTask(ctx, spec.TaskDescription{UID: uid, Cores: 1, Func: func(context.Context) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	done, err := b.SubmitTask(ctx, spec.TaskDescription{UID: uid, Cores: 1, Func: func(context.Context) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WaitTasks(ctx, uid); !errors.Is(err, boom) {
		t.Fatalf("the failing task settled with %v, want %v", err, boom)
	}
	if err := b.WaitTasks(ctx, uid); err != nil {
		t.Fatal(err)
	}
	tm := s.TaskManager()
	h := tm.newTask(ctx, spec.TaskDescription{UID: uid})
	h.cur, h.p = failed, a
	tm.mu.Lock()
	tm.tasks[uid] = h
	tm.mu.Unlock()
	tm.settle(done)
	select {
	case <-h.Done():
	default:
		t.Fatal("the handle was not settled")
	}
	if err := h.Err(); err != nil {
		t.Fatalf("settled with the DONE task while bound to the FAILED one: %v", err)
	}
}

package core

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/pilot"
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

// TestTaskSettleSingleWinnerAfterJournal: a task is settled by its pilot's
// completion hook, which runs after the Updater has journaled the final
// transition. So the moment Wait returns the journal holds all eight records
// of every task (and the seven of the session and its two pilots), with
// nothing to poll for, and every task was settled once, where it was placed.
func TestTaskSettleSingleWinnerAfterJournal(t *testing.T) {
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
	<-started
	pt := pilotTask(tasks[0])
	fired := 0
	pt.OnDone(func() {
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
	pt.OnDone(func() { fired++ })
	if fired != 2 {
		t.Fatal("a hook registered on a settled task did not run at once")
	}
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownReroutesQueuedSingleWinner: a pilot that shuts down with 200
// unpinned tasks queued behind a holder hands every one of them to the
// session exactly once, through its completion hook and on the task's own
// goroutine; each lands on the surviving pilot and finishes there.
func TestShutdownReroutesQueuedSingleWinner(t *testing.T) {
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
			for i := 0; i < n; i++ {
				<-started
			}
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

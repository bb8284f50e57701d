package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/router"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// walRecord is one record as the journal's crash hook saw it: kind, sequence
// number, and what of the body says whose it is.
type walRecord struct {
	kind journal.Kind
	seq  uint64
	body struct {
		UID   string `json:"uid"`
		Pilot string `json:"pilot"`
		From  string `json:"from"`
		To    string `json:"to"`
	}
}

// observeWAL records every record jw writes from here on, in file order: the
// crash hook is asked about each under the writer lock, before its bytes.
func observeWAL(t *testing.T, jw *journal.Writer) func() []walRecord {
	var mu sync.Mutex
	var recs []walRecord
	jw.SetCrashHook(func(rec journal.Record) journal.CrashMode {
		r := walRecord{kind: rec.Kind, seq: rec.Seq}
		if err := json.Unmarshal(rec.Body, &r.body); err != nil {
			t.Errorf("record %d: %v", rec.Seq, err)
		}
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return journal.NoCrash
	})
	return func() []walRecord {
		mu.Lock()
		defer mu.Unlock()
		return append([]walRecord(nil), recs...)
	}
}

// TestDispatchRecordsConsecutive: the submitter journals a task's description,
// its bind and its three transitions before the agent scheduler with one write,
// so in the WAL they are five consecutive records in that order, whatever the
// granted tasks' goroutines write meanwhile on the other P.
func TestDispatchRecordsConsecutive(t *testing.T) {
	const n = 2000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, err := NewSession(SessionConfig{
		Seed:              7,
		Clock:             simtime.NewScaled(1e6, DefaultOrigin),
		FastBoot:          true,
		JournalPath:       filepath.Join(t.TempDir(), "dispatch.wal"),
		JournalFlushEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pilots := map[string]bool{}
	for i := 0; i < 2; i++ {
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "hetero", Nodes: 32})
		if err != nil {
			t.Fatal(err)
		}
		s.TaskManager().AddPilot(p)
		pilots[p.UID()] = true
	}
	records := observeWAL(t, s.Journal())
	descs := make([]spec.TaskDescription, n)
	for i := range descs {
		descs[i] = spec.TaskDescription{Name: "consecutive", Cores: 1 + i%4, Func: func(context.Context) error { return nil }}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	tasks, err := s.TaskManager().Submit(ctx, descs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
	recs := records()
	if len(recs) != 8*n {
		t.Fatalf("%d records for %d tasks, want %d", len(recs), n, 8*n)
	}
	path := []states.State{states.TaskNew, states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling}
	described := 0
	for i, r := range recs {
		if i > 0 && r.seq != recs[i-1].seq+1 {
			t.Fatalf("record %d follows %d in the file", r.seq, recs[i-1].seq)
		}
		if r.kind != journal.KindTask {
			continue
		}
		described++
		if i+4 >= len(recs) {
			t.Fatalf("task %s described %d records before the end", r.body.UID, len(recs)-i)
		}
		if b := recs[i+1]; b.kind != journal.KindBind || b.body.UID != r.body.UID || !pilots[b.body.Pilot] {
			t.Fatalf("after the description of %s (seq %d): %s %+v, want its bind", r.body.UID, r.seq, b.kind, b.body)
		}
		for k := 0; k < 3; k++ {
			tr := recs[i+2+k]
			if tr.kind != journal.KindTransition || tr.body.UID != r.body.UID || tr.body.From != string(path[k]) || tr.body.To != string(path[k+1]) {
				t.Fatalf("%d after the description of %s (seq %d): %s %+v, want %s -> %s",
					2+k, r.body.UID, r.seq, tr.kind, tr.body, path[k], path[k+1])
			}
		}
	}
	if described != n {
		t.Fatalf("%d descriptions for %d tasks", described, n)
	}
}

// TestStagedTaskFirstChainJournaledAtSubmit: a task with input staging has a
// goroutine to wait for its data on, but its first chain of transitions is made
// on the submitter like everybody's, so what dispatch owes is in the journal —
// description, bind, TMGR_SCHEDULING, AGENT_STAGING_INPUT, in that order — when
// Submit returns. Its description carries staging directives, which are
// encoding/json's: the four records go through the three doors.
func TestStagedTaskFirstChainJournaledAtSubmit(t *testing.T) {
	s, _ := newJournaledSession(t, 13)
	defer s.Close()
	p := submitAttachedPilot(t, s)
	records := observeWAL(t, s.Journal())
	tasks, err := s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		UID: "task.staged", Name: "staged", Cores: 1,
		InputStaging: []spec.StagingDirective{{Source: "delta:/raw/a", Target: "delta:/sandbox/a", Bytes: 1 << 20, Mode: spec.StageCopy}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range records() {
		if r.body.UID == "task.staged" && len(got) < 4 {
			got = append(got, string(r.kind)+":"+r.body.Pilot+r.body.To)
		}
	}
	want := []string{"task:", "bind:" + p.UID(), "transition:TMGR_SCHEDULING", "transition:AGENT_STAGING_INPUT"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal when Submit returned: %v, want %v", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
}

// stoppingRouter picks the first target and shuts it down before it answers:
// the pilot routing found live refuses the submission.
type stoppingRouter struct{ t *testing.T }

func (stoppingRouter) Name() string { return "stopping" }

func (r stoppingRouter) Route(targets []router.Target, _ spec.TaskDescription) (int, error) {
	if err := targets[0].(*pilot.Pilot).Shutdown(); err != nil {
		r.t.Errorf("shutdown in Route: %v", err)
	}
	return 0, nil
}

// TestRefusedSubmitLeavesOwedRecords: when SubmitTask refuses the task (its
// pilot left ACTIVE between routing and dispatch) no transition carries what
// dispatch owes the journal, so dispatch writes it: description and bind are
// in the WAL as they were when they were written first, and a recovery finds
// the task bound to a lost pilot and re-dispatches it, once.
func TestRefusedSubmitLeavesOwedRecords(t *testing.T) {
	s, jp := newJournaledSession(t, 11)
	doomed := submitAttachedPilot(t, s)
	// Journaled and alive, but not the task manager's: nowhere to retry.
	spare, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 128, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = spare.Shutdown() }()
	s.TaskManager().mu.Lock()
	s.TaskManager().rt = stoppingRouter{t}
	s.TaskManager().mu.Unlock()
	records := observeWAL(t, s.Journal())

	ran := make(chan struct{}, 2)
	_, err = s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		UID: "task.refused", Name: "refused", Cores: 1, Func: func(context.Context) error { ran <- struct{}{}; return nil },
	})
	if err == nil {
		t.Fatal("Submit succeeded on a pilot that shut down under it")
	}
	var owed []walRecord
	for _, r := range records() {
		if r.body.UID == "task.refused" {
			owed = append(owed, r)
		}
	}
	if len(owed) != 2 || owed[0].kind != journal.KindTask || owed[1].kind != journal.KindBind ||
		owed[1].seq != owed[0].seq+1 || owed[1].body.Pilot != doomed.UID() {
		t.Fatalf("records of the refused task: %+v, want its description, then its bind to %s", owed, doomed.UID())
	}
	s.Abandon()

	rs, rep, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if len(rep.TasksRerouted) != 1 || rep.TasksRerouted[0] != "task.refused" || len(rep.TasksReattached)+len(rep.TasksSettled) != 0 {
		t.Fatalf("recovery: rerouted %v, reattached %v, settled %v, want the refused task rerouted",
			rep.TasksRerouted, rep.TasksReattached, rep.TasksSettled)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rs.TaskManager().Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The description was journaled before the crash and the Func is not: the
	// recovered task runs its (empty) Duration payload on the spare pilot.
	task := rs.TaskManager().Tasks()[0]
	if task.State() != states.TaskDone || task.Pilot() != spare.UID() || task.Reroutes() != 1 {
		t.Fatalf("recovered task: %s on %q after %d reroutes, want DONE on %s after 1", task.State(), task.Pilot(), task.Reroutes(), spare.UID())
	}
	rs.Close()
	snap, stats, err := journal.ReplayFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tasks) != 1 || snap.Tasks[0].Pilot != spare.UID() || snap.Tasks[0].State != states.TaskDone || stats.Skipped != 0 {
		t.Fatalf("replay after the recovery: %+v, stats %+v", snap.Tasks, stats)
	}
	select {
	case <-ran:
		t.Fatal("the refused submission's Func ran")
	default:
	}
}

// TestDoneAskedBeforeDuringAndAfter: a handle makes its channel only for
// somebody who asks before the end, and everybody sees the close: asked before,
// while finish runs, and after, when it is the one closed channel.
func TestDoneAskedBeforeDuringAndAfter(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	before := &handle{uid: "before"}
	ch := before.Done()
	if closed(ch) {
		t.Fatal("Done closed before finish")
	}
	before.finish(nil)
	if !closed(ch) || before.Done() != ch {
		t.Fatal("finish did not close the channel handed out before it")
	}
	after := &handle{uid: "after"}
	after.finish(nil)
	if !closed(after.Done()) || after.Done() != (<-chan struct{})(finishedChan) {
		t.Fatal("a handle nobody asked does not hand out the shared closed channel")
	}
	for round := 0; round < 50; round++ {
		h := &handle{uid: "during"}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				select {
				case <-h.Done():
				case <-time.After(10 * time.Second):
					t.Error("an asker racing finish never saw the close")
				}
			}()
		}
		close(start)
		h.finish(nil)
		h.finish(nil) // once
		wg.Wait()
	}
}

// TestWaitOnFinishedTasksMakesNoChannel: Wait reads through Done, and a task
// that finished before anybody asked has no channel of its own to make.
func TestWaitOnFinishedTasksMakesNoChannel(t *testing.T) {
	const n = 1000
	s, err := NewSession(SessionConfig{Seed: 7, Clock: simtime.NewScaled(1e6, DefaultOrigin), FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tm := s.TaskManager()
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = tm.newTask(context.Background(), spec.TaskDescription{UID: spec.TaskUID("wait", i)})
		tasks[i].finish(nil)
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := tm.Wait(ctx, tasks...); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Wait over %d finished tasks allocates %.1f objects, want none", n, allocs)
	}
	for _, task := range tasks {
		if task.done != finishedChan {
			t.Fatalf("task %s has a channel of its own", task.UID())
		}
	}
}

package profile

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/states"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func recordedTask(r *Recorder, uid string, clk *simtime.Virtual, stepSec int) {
	m := states.NewMachine(uid, states.TaskModel(), clk)
	m.OnTransition(r.Callback("task"))
	for _, s := range []states.State{
		states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling,
		states.TaskExecuting, states.TaskStagingOutput, states.TaskDone,
	} {
		clk.Advance(time.Duration(stepSec) * time.Second)
		_ = m.To(s)
	}
}

func TestCallbackRecordsTransitions(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	recordedTask(r, "task.1", clk, 1)
	if r.Len() != 6 {
		t.Fatalf("events = %d, want 6", r.Len())
	}
	evs := r.Events()
	if evs[0].From != states.TaskNew || evs[0].To != states.TaskTmgrScheduling {
		t.Fatalf("first event = %+v", evs[0])
	}
}

func TestEntitiesSortedAndFiltered(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	recordedTask(r, "task.b", clk, 1)
	recordedTask(r, "task.a", clk, 1)
	r.Record(Event{UID: "svc.1", Entity: "service", To: states.ServiceActive, At: clk.Now()})
	tasks := r.Entities("task")
	if len(tasks) != 2 || tasks[0] != "task.a" || tasks[1] != "task.b" {
		t.Fatalf("task entities = %v", tasks)
	}
	if all := r.Entities(""); len(all) != 3 {
		t.Fatalf("all entities = %v", all)
	}
}

func TestDurationsBetweenStates(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	recordedTask(r, "task.1", clk, 2) // 2s per transition
	ds := r.Durations("task", states.TaskExecuting, states.TaskDone)
	if len(ds) != 1 || ds[0] != 4*time.Second { // EXEC → STAGE_OUT → DONE
		t.Fatalf("durations = %v", ds)
	}
	st := r.Stats("task", states.TaskExecuting, states.TaskDone)
	if st.N != 1 || st.Mean != 4*time.Second {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDurationsSkipIncompleteEntities(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	m := states.NewMachine("task.partial", states.TaskModel(), clk)
	m.OnTransition(r.Callback("task"))
	_ = m.To(states.TaskTmgrScheduling) // never reaches DONE
	if ds := r.Durations("task", states.TaskTmgrScheduling, states.TaskDone); len(ds) != 0 {
		t.Fatalf("durations include incomplete entity: %v", ds)
	}
}

func TestConcurrencyAt(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	// task.1 executes from t=4s to t=5s (1s steps), task.2 from t=10s to
	// t=12.5s... build two tasks offset in time
	recordedTask(r, "task.1", clk, 1) // transitions at 1..6s; EXEC at 4s, STAGE_OUT at 5s
	recordedTask(r, "task.2", clk, 1) // starts after: EXEC at 10s, STAGE_OUT at 11s
	if n := r.ConcurrencyAt("task", states.TaskExecuting, states.TaskStagingOutput, origin.Add(4500*time.Millisecond)); n != 1 {
		t.Fatalf("concurrency at 4.5s = %d, want 1", n)
	}
	if n := r.ConcurrencyAt("task", states.TaskExecuting, states.TaskStagingOutput, origin.Add(20*time.Second)); n != 0 {
		t.Fatalf("concurrency at 20s = %d, want 0", n)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	recordedTask(r, "task.1", clk, 3)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "uid,entity,from,to,unix_ns\n") {
		t.Fatalf("csv header wrong: %q", buf.String()[:40])
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip %d events, want %d", back.Len(), r.Len())
	}
	// durations survive the round trip
	a := r.Stats("task", states.TaskExecuting, states.TaskDone)
	b := back.Stats("task", states.TaskExecuting, states.TaskDone)
	if a.Mean != b.Mean {
		t.Fatalf("round trip changed stats: %v vs %v", a.Mean, b.Mean)
	}
}

func TestReadCSVMalformed(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("uid,entity,from,to,unix_ns\nonly,three,fields\n")); err == nil {
		t.Fatal("accepted short row")
	}
	if _, err := ReadCSV(strings.NewReader("uid,entity,from,to,unix_ns\na,task,NEW,DONE,notanumber\n")); err == nil {
		t.Fatal("accepted bad timestamp")
	}
	r, err := ReadCSV(strings.NewReader(""))
	if err != nil || r.Len() != 0 {
		t.Fatalf("empty input: %v, %d", err, r.Len())
	}
}

func TestEnteredAt(t *testing.T) {
	clk := simtime.NewVirtual(origin)
	r := NewRecorder()
	recordedTask(r, "task.1", clk, 1)
	at, ok := r.EnteredAt("task.1", states.TaskExecuting)
	if !ok || !at.Equal(origin.Add(4*time.Second)) {
		t.Fatalf("EnteredAt = %v/%v", at, ok)
	}
	if _, ok := r.EnteredAt("ghost", states.TaskDone); ok {
		t.Fatal("EnteredAt found ghost entity")
	}
}

// TestRecorderKeepsOrderAcrossChunks fills more than 64 chunks (past any
// shift-count wrap in the chunk sizing) from several goroutines: every event
// is kept, each writer's in its own order, no chunk is larger than
// chunkEvents, and Events returns a copy the recorder does not write into.
func TestRecorderKeepsOrderAcrossChunks(t *testing.T) {
	const writers, each = 4, 17*chunkEvents + 137
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cb := r.Callback(strconv.Itoa(w))
			for i := 0; i < each; i++ {
				cb("uid", states.TaskNew, states.TaskDone, origin.Add(time.Duration(i)))
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if r.Len() != writers*each || len(evs) != writers*each {
		t.Fatalf("Len %d, Events %d, want %d", r.Len(), len(evs), writers*each)
	}
	if len(r.chunks) <= 64 {
		t.Fatalf("%d chunks, want more than 64", len(r.chunks))
	}
	for k, c := range r.chunks {
		if want := min(chunkEvents, 16<<min(k, 10)); cap(c) != want {
			t.Fatalf("chunk %d holds %d events, want %d", k, cap(c), want)
		}
	}
	next := map[string]int{}
	for _, e := range evs {
		if e.At != origin.Add(time.Duration(next[e.Entity])) {
			t.Fatalf("writer %s: event %d out of order: %v", e.Entity, next[e.Entity], e.At)
		}
		next[e.Entity]++
	}
	evs[0].UID = "changed"
	r.Record(Event{UID: "last"})
	if got := r.Events(); got[0].UID != "uid" || got[len(got)-1].UID != "last" || len(got) != writers*each+1 {
		t.Fatalf("after a write to the copy and one Record: first %q, last %q, %d events", got[0].UID, got[len(got)-1].UID, len(got))
	}
}

package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

func openTestWriter(t *testing.T) *Writer {
	t.Helper()
	w, err := Open(Config{
		Path:  filepath.Join(t.TempDir(), "session.journal"),
		Clock: simtime.NewReal(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = w.Close() }) // a second Close is a no-op
	return w
}

func mustAppend(t *testing.T, w *Writer, kind Kind, body any) {
	t.Helper()
	if err := w.Append(kind, body); err != nil {
		t.Fatalf("Append %s: %v", kind, err)
	}
}

// writeBasicJournal appends a session, one pilot, one task with a full
// happy-path transition history, and one service with a publication.
func writeBasicJournal(t *testing.T, w *Writer) {
	t.Helper()
	mustAppend(t, w, KindSession, SessionBody{UID: "session.0001", Seed: 42, Incarnation: 1})
	mustAppend(t, w, KindPilot, PilotBody{UID: "p1", Desc: spec.PilotDescription{UID: "p1", Platform: "r3", Nodes: 2}})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "pilot", UID: "p1", From: "NEW", To: "PMGR_LAUNCHING"})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "pilot", UID: "p1", From: "PMGR_LAUNCHING", To: "PMGR_ACTIVE"})
	mustAppend(t, w, kindTask, TaskBody{UID: "t1", Desc: spec.TaskDescription{
		UID: "t1", Cores: 1, Duration: rng.ConstDuration(3 * time.Second),
	}})
	mustAppend(t, w, KindBind, BindBody{Entity: "task", UID: "t1", Pilot: "p1"})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "NEW", To: "TMGR_SCHEDULING"})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "TMGR_SCHEDULING", To: "AGENT_STAGING_INPUT"})
	mustAppend(t, w, KindService, ServiceBody{UID: "s1", Desc: spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{UID: "s1", Cores: 1},
		Model:           "noop",
	}})
	mustAppend(t, w, KindBind, BindBody{Entity: "service", UID: "s1", Pilot: "p1"})
	mustAppend(t, w, KindEndpoint, EndpointBody{
		Op: OpPublish, UID: "s1",
		Endpoint:   proto.Endpoint{ServiceUID: "s1", Model: "noop", Address: "p1.s1", Incarnation: 1},
		Generation: 1,
	})
}

func TestRoundTrip(t *testing.T) {
	w := openTestWriter(t)
	writeBasicJournal(t, w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap, stats, err := ReplayFile(w.path)
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	if stats.Records != 11 || stats.Applied != 11 || stats.Skipped != 0 || stats.Invalid != 0 {
		t.Fatalf("stats = %+v, want 11 records all applied", stats)
	}
	if stats.TornTail {
		t.Fatal("clean journal reported a torn tail")
	}
	if snap.Session.UID != "session.0001" || snap.Session.Seed != 42 || snap.Session.Incarnation != 1 {
		t.Fatalf("session body = %+v", snap.Session)
	}
	if len(snap.Pilots) != 1 || snap.Pilots[0].State != states.PilotActive {
		t.Fatalf("pilots = %+v", snap.Pilots)
	}
	if len(snap.Tasks) != 1 || snap.Tasks[0].State != states.TaskStagingInput || snap.Tasks[0].Pilot != "p1" {
		t.Fatalf("tasks = %+v", snap.Tasks[0])
	}
	svc := snap.Services[0]
	if svc.Pilot != "p1" || svc.Generation != 1 || svc.Endpoint.Address != "p1.s1" || svc.Withdrawn || svc.Suspended {
		t.Fatalf("service = %+v", svc)
	}
	// The journaled duration distribution must survive the round trip.
	if got := snap.Tasks[0].Desc.Duration.Mean(); got != 3*time.Second {
		t.Fatalf("task duration mean = %v, want 3s", got)
	}
}

func TestReplayTruncatedTail(t *testing.T) {
	w := openTestWriter(t)
	writeBasicJournal(t, w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data := readFile(t, w.path)

	// Cut the final record in half: replay must apply everything before it
	// and flag — not fail on — the torn tail.
	frames := frameOffsets(t, data)
	last := frames[len(frames)-1]
	cut := last + (len(data)-last)/2
	snap, stats, err := replay(data[:cut])
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if !stats.TornTail {
		t.Fatal("torn tail not reported")
	}
	if stats.Records != 10 || stats.Applied != 10 || stats.Invalid != 0 {
		t.Fatalf("stats = %+v, want 10 complete records applied", stats)
	}
	// ValidBytes marks exactly where the torn fragment begins, so a writer
	// can truncate to it and append safely.
	if stats.ValidBytes != int64(last) {
		t.Fatalf("ValidBytes = %d, want %d (start of torn record)", stats.ValidBytes, last)
	}
	if snap2, stats2, err := replay(append(data[:stats.ValidBytes:stats.ValidBytes], data[last:]...)); err != nil ||
		stats2.TornTail || len(snap2.Services) != 1 {
		t.Fatalf("replay after truncate+re-append: snap=%+v stats=%+v err=%v", snap2, stats2, err)
	}
	// The endpoint publication was the torn record: the service exists but
	// has no publication.
	if svc := snap.Services[0]; svc.Generation != 0 || svc.Endpoint.Address != "" {
		t.Fatalf("torn publication leaked into snapshot: %+v", svc)
	}
}

func TestReplayFlippedChecksumByte(t *testing.T) {
	w := openTestWriter(t)
	writeBasicJournal(t, w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data := readFile(t, w.path)

	// Flip one payload byte in a mid-journal record: replay must fail
	// (all-or-nothing) and count the record invalid.
	frames := frameOffsets(t, data)
	data[frames[3]+headerSize] ^= 0xff
	snap, stats, err := replay(data)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if snap != nil {
		t.Fatal("corrupt journal produced a snapshot")
	}
	if stats.Invalid != 1 {
		t.Fatalf("stats.Invalid = %d, want 1", stats.Invalid)
	}
	if stats.Records != 3 {
		t.Fatalf("stats.Records = %d, want 3 records before the corrupt one", stats.Records)
	}
}

func TestReplayDuplicateAndOutOfOrderTransitions(t *testing.T) {
	w := openTestWriter(t)
	mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
	mustAppend(t, w, kindTask, TaskBody{UID: "t1", Desc: spec.TaskDescription{UID: "t1", Cores: 1}})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "NEW", To: "TMGR_SCHEDULING"})
	// Exact duplicate: to == current.
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "NEW", To: "TMGR_SCHEDULING"})
	// Out of order: from does not match current state.
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "AGENT_SCHEDULING", To: "AGENT_EXECUTING"})
	// Unknown UID.
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "ghost", From: "NEW", To: "TMGR_SCHEDULING"})
	// Duplicate description.
	mustAppend(t, w, kindTask, TaskBody{UID: "t1", Desc: spec.TaskDescription{UID: "t1", Cores: 1}})
	// Illegal edge from the current state.
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "TMGR_SCHEDULING", To: "DONE"})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap, stats, err := ReplayFile(w.path)
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	if stats.Records != 8 || stats.Applied != 3 || stats.Skipped != 5 {
		t.Fatalf("stats = %+v, want 8 records / 3 applied / 5 skipped", stats)
	}
	want := map[string]int{
		"duplicate-transition":    1,
		"out-of-order-transition": 1,
		"transition-unknown-uid":  1,
		"duplicate-desc":          1,
		"illegal-transition":      1,
	}
	for reason, n := range want {
		if stats.SkipReasons[reason] != n {
			t.Fatalf("SkipReasons[%s] = %d, want %d (all: %v)", reason, stats.SkipReasons[reason], n, stats.SkipReasons)
		}
	}
	if snap.Tasks[0].State != states.TaskTmgrScheduling {
		t.Fatalf("task state = %s after skipped records, want TMGR_SCHEDULING", snap.Tasks[0].State)
	}
}

// TestReplayCachesKeepVerdicts replays, on the writer's own byte shape, what
// replay's shortcuts (the last task described, a from state equal to the
// current one, shared Name and pilot strings) must not change the verdict on:
// three tasks' transitions interleaved, a description whose UID key differs
// from its Desc.UID, a duplicate description with another Desc, an
// out-of-order transition, a restart from the initial state, a bind to a
// pilot the journal never described, and a kind this package does not write.
// replay and ReplayFile agree, and both say exactly this.
func TestReplayCachesKeepVerdicts(t *testing.T) {
	at := time.Date(2025, 3, 4, 5, 6, 7, 123000000, time.UTC)
	w := openTestWriter(t)
	tr := func(uid, from, to string, at time.Time) {
		mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: uid, From: from, To: to, At: at})
	}
	task := func(uid string, d spec.TaskDescription) { mustAppend(t, w, kindTask, TaskBody{UID: uid, Desc: d}) }
	descA := spec.TaskDescription{UID: "A", Name: "n", Cores: 1}
	descB := spec.TaskDescription{UID: "B", Name: "n", Cores: 2}
	descC := spec.TaskDescription{UID: "c-desc", Name: "m", Cores: 1, Pilot: "p1"}
	mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
	mustAppend(t, w, KindPilot, PilotBody{UID: "p1", Desc: spec.PilotDescription{UID: "p1", Platform: "r3", Nodes: 1}})
	task("A", descA)
	task("B", descB)
	tr("A", "NEW", "TMGR_SCHEDULING", at)
	tr("B", "NEW", "TMGR_SCHEDULING", at)
	task("C", descC)
	tr("c-desc", "NEW", "TMGR_SCHEDULING", at) // the task went in under C: unknown
	tr("C", "NEW", "TMGR_SCHEDULING", at)
	mustAppend(t, w, KindBind, BindBody{Entity: "task", UID: "A", Pilot: "p1"})
	tr("A", "TMGR_SCHEDULING", "AGENT_STAGING_INPUT", at)
	tr("B", "AGENT_SCHEDULING", "AGENT_EXECUTING", at) // out of order
	task("A", spec.TaskDescription{UID: "A2", Name: "other", Cores: 9})
	tr("A", "AGENT_STAGING_INPUT", "AGENT_SCHEDULING", at)
	tr("C", "TMGR_SCHEDULING", "AGENT_STAGING_INPUT", at.In(time.FixedZone("east", 7*3600)))
	tr("A", "AGENT_SCHEDULING", "AGENT_EXECUTING", at)
	tr("A", "AGENT_EXECUTING", "AGENT_STAGING_OUTPUT", at)
	tr("A", "AGENT_STAGING_OUTPUT", "DONE", at)
	tr("A", "NEW", "TMGR_SCHEDULING", at) // restart
	tr("A", "NEW", "TMGR_SCHEDULING", at) // and its duplicate
	mustAppend(t, w, KindBind, BindBody{Entity: "task", UID: "B", Pilot: "p.ghost"})
	mustAppend(t, w, Kind("bogus"), map[string]int{"x": 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, stats, err := replay(readFile(t, w.path))
	if err != nil {
		t.Fatal(err)
	}
	fileSnap, fileStats, err := ReplayFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, fileSnap) || !reflect.DeepEqual(stats, fileStats) {
		t.Fatalf("replay and ReplayFile differ:\n%+v %+v\n%+v %+v", snap, stats, fileSnap, fileStats)
	}
	wantSnap := &Snapshot{
		Session: SessionBody{UID: "s", Incarnation: 1},
		Pilots:  []*PilotState{{Desc: spec.PilotDescription{UID: "p1", Platform: "r3", Nodes: 1}, State: states.PilotModel().Initial()}},
		Tasks: []*TaskState{
			{Desc: descA, State: states.TaskTmgrScheduling, Pilot: "p1"},
			{Desc: descB, State: states.TaskTmgrScheduling, Pilot: "p.ghost"},
			{Desc: descC, State: states.TaskStagingInput},
		},
	}
	if !reflect.DeepEqual(snap, wantSnap) {
		t.Errorf("snapshot:\n got %+v %+v %+v\nwant %+v %+v %+v", snap.Tasks[0], snap.Tasks[1], snap.Tasks[2], wantSnap.Tasks[0], wantSnap.Tasks[1], wantSnap.Tasks[2])
	}
	wantStats := &ReplayStats{
		Records: 22, Applied: 17, Skipped: 5, ValidBytes: stats.ValidBytes,
		SkipReasons: map[string]int{"transition-unknown-uid": 1, "out-of-order-transition": 1, "duplicate-desc": 1,
			"duplicate-transition": 1, "unknown-kind": 1},
		FastDecodes: counts(map[Kind]int{kindTask: 4, KindBind: 2, KindTransition: 13}),
		JSONDecodes: counts(map[Kind]int{KindSession: 1, KindPilot: 1, "bogus": 1}),
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats:\n got %+v\nwant %+v", stats, wantStats)
	}
}

func TestReplayMachineRestart(t *testing.T) {
	// A re-placed service bootstraps a fresh machine under the same UID:
	// after a final state, a transition from the model's initial state
	// re-enters the model.
	w := openTestWriter(t)
	mustAppend(t, w, KindService, ServiceBody{UID: "s1", Desc: spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{UID: "s1", Cores: 1}, Model: "noop",
	}})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "service", UID: "s1", From: "NEW", To: "SMGR_SCHEDULING"})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "service", UID: "s1", From: "SMGR_SCHEDULING", To: "FAILED"})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "service", UID: "s1", From: "NEW", To: "SMGR_SCHEDULING"})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap, stats, err := ReplayFile(w.path)
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	if stats.Skipped != 0 {
		t.Fatalf("restart transition skipped: %+v", stats)
	}
	if snap.Services[0].State != states.ServiceSmgrScheduling {
		t.Fatalf("service state = %s, want SMGR_SCHEDULING after restart", snap.Services[0].State)
	}
}

func TestWriterCrashModes(t *testing.T) {
	t.Run("lost", func(t *testing.T) {
		w := openTestWriter(t)
		mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
		fired := false
		w.OnCrash(func() { fired = true })
		w.SetCrashHook(func(rec Record) CrashMode {
			if rec.Kind == kindTask {
				return CrashLost
			}
			return NoCrash
		})
		if err := w.Append(kindTask, TaskBody{UID: "t1"}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashing append err = %v, want ErrCrashed", err)
		}
		if !fired {
			t.Fatal("OnCrash did not fire")
		}
		if err := w.Append(kindTask, TaskBody{UID: "t2"}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash append err = %v, want ErrCrashed", err)
		}
		_, stats, err := ReplayFile(w.path)
		if err != nil {
			t.Fatalf("ReplayFile: %v", err)
		}
		if stats.Records != 1 || stats.TornTail {
			t.Fatalf("stats = %+v, want exactly the pre-crash record", stats)
		}
	})

	t.Run("torn", func(t *testing.T) {
		w := openTestWriter(t)
		mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
		w.SetCrashHook(func(rec Record) CrashMode {
			if rec.Kind == kindTask {
				return CrashTorn
			}
			return NoCrash
		})
		if err := w.Append(kindTask, TaskBody{UID: "t1"}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashing append err = %v, want ErrCrashed", err)
		}
		_, stats, err := ReplayFile(w.path)
		if err != nil {
			t.Fatalf("ReplayFile with torn tail: %v", err)
		}
		if stats.Records != 1 || !stats.TornTail {
			t.Fatalf("stats = %+v, want 1 record plus a torn tail", stats)
		}
	})
}

// taskChains is what a task without staging journals after its bind: the three
// states before the agent scheduler, AGENT_EXECUTING, and the two after the
// payload, as its pilot reports them.
func taskChains(at time.Time) [][]states.Record {
	rec := func(ss ...states.State) (chain []states.Record) {
		for i, s := range ss {
			chain = append(chain, states.Record{State: s, At: at.Add(time.Duration(i) * time.Microsecond)})
		}
		return chain
	}
	return [][]states.Record{
		rec(states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling),
		rec(states.TaskExecuting),
		rec(states.TaskStagingOutput, states.TaskDone),
	}
}

// TestAppendTransitionsMatchesOneByOne: a chain appended at once leaves the
// file, the sequence numbers and the append count of the same transitions
// appended one by one.
func TestAppendTransitionsMatchesOneByOne(t *testing.T) {
	at := time.Date(2025, 3, 4, 5, 6, 7, 123456789, time.UTC)
	chained, single := openTestWriter(t), openTestWriter(t)
	for _, w := range []*Writer{chained, single} {
		mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
		mustAppend(t, w, kindTask, TaskBody{UID: "t1"})
	}
	from := states.TaskNew
	for _, chain := range taskChains(at) {
		if err := chained.AppendTransitions("task", "t1", from, chain); err != nil {
			t.Fatal(err)
		}
		for _, s := range chain {
			mustAppend(t, single, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: string(from), To: string(s.State), At: s.At})
			from = s.State
		}
	}
	if err := chained.AppendTransitions("task", "t1", from, nil); err != nil {
		t.Fatalf("empty chain: %v", err)
	}
	ca, _ := chained.Stats()
	sa, _ := single.Stats()
	if ca != sa || ca != 8 {
		t.Fatalf("Stats(): %d appends chained, %d one by one, want 8", ca, sa)
	}
	for _, w := range []*Writer{chained, single} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := readFile(t, chained.path), readFile(t, single.path); !bytes.Equal(got, want) {
		t.Fatalf("chained WAL differs from the one appended record by record:\n got %q\nwant %q", got, want)
	}
	snap, stats, err := ReplayFile(chained.path)
	if err != nil || stats.Applied != 8 || snap.Tasks[0].State != states.TaskDone {
		t.Fatalf("replay: %+v, %v", stats, err)
	}
}

// TestAppendTransitionsCrashVerdicts: the crash hook is asked about each
// record of a chain in file order, and a verdict on the k-th leaves exactly
// the k-1 whole records before it — plus half of the k-th if torn — which is
// what replay then finds. Nothing of the chain after the verdict is written,
// and nothing before it is held back.
func TestAppendTransitionsCrashVerdicts(t *testing.T) {
	at := time.Date(2025, 3, 4, 5, 6, 7, 0, time.UTC)
	chain := taskChains(at)[0]
	path := []states.State{states.TaskNew, chain[0].State, chain[1].State, chain[2].State}
	for _, mode := range []CrashMode{CrashLost, CrashTorn} {
		for k := 1; k <= len(chain); k++ {
			t.Run(fmt.Sprintf("mode%d/record%d", mode, k), func(t *testing.T) {
				w := openTestWriter(t)
				mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
				mustAppend(t, w, kindTask, TaskBody{UID: "t1"})
				want := readFile(t, w.path)
				var asked []uint64
				w.SetCrashHook(func(rec Record) CrashMode {
					asked = append(asked, rec.Seq)
					if got := int64(len(readFile(t, w.path))); got != int64(len(want)) {
						t.Errorf("record %d asked about with %d bytes of the chain already in the file", rec.Seq, got-int64(len(want)))
					}
					if rec.Seq == uint64(2+k) {
						return mode
					}
					return NoCrash
				})
				fired := 0
				w.OnCrash(func() { fired++ })
				if err := w.AppendTransitions("task", "t1", states.TaskNew, chain); !errors.Is(err, ErrCrashed) {
					t.Fatalf("err = %v, want ErrCrashed", err)
				}
				for i := 1; i <= k; i++ {
					frame, err := oracleFrame(KindTransition, uint64(2+i), TransitionBody{
						Entity: "task", UID: "t1", From: string(path[i-1]), To: string(path[i]), At: chain[i-1].At})
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case i < k:
						want = append(want, frame...)
					case mode == CrashTorn:
						want = append(want, frame[:headerSize+(len(frame)-headerSize)/2]...)
					}
				}
				if got := readFile(t, w.path); !bytes.Equal(got, want) {
					t.Fatalf("file after the verdict:\n got %q\nwant %q", got, want)
				}
				if len(asked) != k || asked[0] != 3 || asked[k-1] != uint64(2+k) || fired != 1 {
					t.Fatalf("hook asked about %v, OnCrash fired %d times", asked, fired)
				}
				if appends, _ := w.Stats(); appends != int64(2+k-1) || !w.Crashed() {
					t.Fatalf("Stats() = %d appends, crashed %v, want %d and true", appends, w.Crashed(), 2+k-1)
				}
				snap, stats, err := ReplayFile(w.path)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Records != 2+k-1 || stats.TornTail != (mode == CrashTorn) || snap.Tasks[0].State != path[k-1] {
					t.Fatalf("replay: %+v, task %s, want %d records and the task in %s", stats, snap.Tasks[0].State, 2+k-1, path[k-1])
				}
			})
		}
	}
}

// TestTaskWritesThreeTimes pins the write() calls of the records a task
// without staging journals, through the doors and in the pieces core and the
// pilot use: description, bind and the three transitions before the agent
// scheduler with one (the submitter's), then its other three transitions as
// chains of one and two. It was one write() a record, eight a task, then five.
func TestTaskWritesThreeTimes(t *testing.T) {
	const n = 100
	w := openTestWriter(t)
	mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
	writes, write := 0, w.fwrite
	w.fwrite = func(b []byte) (int, error) { writes++; return write(b) }
	at := time.Date(2025, 3, 4, 5, 6, 7, 0, time.UTC)
	for i := 0; i < n; i++ {
		uid := fmt.Sprintf("task.%06d", i)
		chains := taskChains(at)
		err := w.AppendDispatch(&TaskBody{UID: uid, Desc: spec.TaskDescription{UID: uid, Cores: 1}},
			BindBody{Entity: "task", UID: uid, Pilot: "pilot.0001"}, states.TaskNew, chains[0])
		if err != nil {
			t.Fatal(err)
		}
		from := states.TaskScheduling
		for _, chain := range chains[1:] {
			if err := w.AppendTransitions("task", uid, from, chain); err != nil {
				t.Fatal(err)
			}
			from = chain[len(chain)-1].State
		}
	}
	if appends, _ := w.Stats(); writes != 3*n || appends != 8*n+1 {
		t.Fatalf("%d tasks: %d write() calls for %d records, want %d for %d", n, writes, appends-1, 3*n, 8*n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, stats, err := ReplayFile(w.path)
	if err != nil || stats.Applied != 8*n+1 || snap.Tasks[n-1].State != states.TaskDone || snap.Tasks[n-1].Pilot != "pilot.0001" {
		t.Fatalf("replay: %+v, %v", stats, err)
	}
}

// dispatchOf is what the dispatch of task uid to pilot.0001 journals, and the
// same records through the three doors AppendDispatch stands for.
func dispatchOf(uid string, desc spec.TaskDescription, chain []states.Record) (combined, oneByOne func(*Writer, bool) error) {
	task, bind := TaskBody{UID: uid, Desc: desc}, BindBody{Entity: "task", UID: uid, Pilot: "pilot.0001"}
	combined = func(w *Writer, described bool) error {
		if described {
			return w.AppendDispatch(&task, bind, states.TaskNew, chain)
		}
		return w.AppendDispatch(nil, bind, states.TaskNew, chain)
	}
	oneByOne = func(w *Writer, described bool) error {
		var err error
		if described {
			err = w.AppendTask(task)
		}
		return errors.Join(err, w.AppendBind(bind), w.AppendTransitions("task", uid, states.TaskNew, chain))
	}
	return combined, oneByOne
}

// TestAppendDispatchMatchesThreeDoors: description, bind and chain appended at
// once leave the file, the sequence numbers and the append count of AppendTask,
// AppendBind and AppendTransitions called in that order — with and without the
// description, with the three-step chain of a task that stages nothing in and
// the two-step chain of one that does, and for the descriptions the hand-written
// codec declines (staging, metadata) or encoding/json refuses (an infinite
// MemGB) or the writer does (over maxRecordSize): what refuses the description
// leaves the bind and the transitions in the journal.
func TestAppendDispatchMatchesThreeDoors(t *testing.T) {
	at := time.Date(2025, 3, 4, 5, 6, 7, 123456789, time.UTC)
	plain := spec.TaskDescription{UID: "t1", Name: "plain", Cores: 2, Duration: rng.ConstDuration(3 * time.Second)}
	staged, meta, inf, huge := plain, plain, plain, plain
	staged.InputStaging = []spec.StagingDirective{{Source: "a", Target: "b"}}
	meta.Metadata = map[string]string{"k": "v"}
	inf.MemGB = math.Inf(1)
	huge.Name = strings.Repeat("x", maxRecordSize)
	for _, tc := range []struct {
		name      string
		desc      spec.TaskDescription
		described bool
		steps     int
		records   int64 // beside the session record
		refused   bool  // the description, by encoding/json or by the writer
	}{
		{"described", plain, true, 3, 5, false},
		{"bind-only", plain, false, 3, 4, false},
		{"two-step", plain, true, 2, 4, false},
		{"no-chain", plain, true, 0, 2, false},
		{"staging", staged, true, 2, 4, false},
		{"metadata", meta, true, 3, 5, false},
		{"infinite-mem", inf, true, 3, 4, true},
		{"too-large", huge, true, 3, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			combined, oneByOne := dispatchOf("t1", tc.desc, taskChains(at)[0][:tc.steps])
			got, want := openTestWriter(t), openTestWriter(t)
			for w, appendAll := range map[*Writer]func(*Writer, bool) error{got: combined, want: oneByOne} {
				mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
				if err := appendAll(w, tc.described); (err != nil) != tc.refused {
					t.Fatalf("err = %v, description refused: %v", err, tc.refused)
				}
				if appends, _ := w.Stats(); appends != 1+tc.records {
					t.Fatalf("Stats() = %d appends, want %d", appends, 1+tc.records)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := readFile(t, got.path), readFile(t, want.path); !bytes.Equal(got, want) {
				t.Fatalf("combined WAL differs from the three doors':\n got %q\nwant %q", got, want)
			}
			snap, stats, err := ReplayFile(got.path)
			if err != nil || stats.Records != int(1+tc.records) {
				t.Fatalf("replay: %+v, %v", stats, err)
			}
			// A bind and transitions without their description are skipped at
			// replay, as they were when the three doors wrote them.
			if described := tc.described && !tc.refused; described != (len(snap.Tasks) == 1) {
				t.Fatalf("replay found %d tasks, described: %v", len(snap.Tasks), described)
			} else if path := []states.State{states.TaskNew, states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling}; described &&
				(snap.Tasks[0].Pilot != "pilot.0001" || snap.Tasks[0].State != path[tc.steps]) {
				t.Fatalf("replayed task: %+v, want bound and in %s", snap.Tasks[0], path[tc.steps])
			}
		})
	}
}

// TestAppendDispatchCrashVerdicts: the crash hook is asked about each of the
// five records in file order, before any byte of the write, and a verdict on
// the k-th leaves exactly the k-1 whole records before it — plus half of the
// k-th if torn. replay then finds nothing of the task, the task described, the
// task bound, or the task one or two transitions in.
func TestAppendDispatchCrashVerdicts(t *testing.T) {
	at := time.Date(2025, 3, 4, 5, 6, 7, 0, time.UTC)
	chain := taskChains(at)[0]
	desc := spec.TaskDescription{UID: "t1", Cores: 1}
	bodies := []scriptRec{
		{kindTask, TaskBody{UID: "t1", Desc: desc}},
		{KindBind, BindBody{Entity: "task", UID: "t1", Pilot: "pilot.0001"}},
	}
	from := states.TaskNew
	for _, s := range chain {
		bodies = append(bodies, scriptRec{KindTransition, TransitionBody{Entity: "task", UID: "t1", From: string(from), To: string(s.State), At: s.At}})
		from = s.State
	}
	combined, _ := dispatchOf("t1", desc, chain)
	for _, mode := range []CrashMode{CrashLost, CrashTorn} {
		for k := 1; k <= len(bodies); k++ {
			t.Run(fmt.Sprintf("mode%d/record%d", mode, k), func(t *testing.T) {
				w := openTestWriter(t)
				mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
				want := readFile(t, w.path)
				var asked []Kind
				w.SetCrashHook(func(rec Record) CrashMode {
					asked = append(asked, rec.Kind)
					if got := len(readFile(t, w.path)); got != len(want) {
						t.Errorf("record %d asked about with %d bytes of the write already in the file", rec.Seq, got-len(want))
					}
					if rec.Seq == uint64(1+k) {
						return mode
					}
					return NoCrash
				})
				fired := 0
				w.OnCrash(func() { fired++ })
				if err := combined(w, true); !errors.Is(err, ErrCrashed) {
					t.Fatalf("err = %v, want ErrCrashed", err)
				}
				for i, r := range bodies[:k] {
					frame, err := oracleFrame(r.kind, uint64(2+i), r.body)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case i < k-1:
						want = append(want, frame...)
					case mode == CrashTorn:
						want = append(want, frame[:headerSize+(len(frame)-headerSize)/2]...)
					}
				}
				if got := readFile(t, w.path); !bytes.Equal(got, want) {
					t.Fatalf("file after the verdict:\n got %q\nwant %q", got, want)
				}
				if len(asked) != k || asked[0] != kindTask || asked[k-1] != bodies[k-1].kind || fired != 1 {
					t.Fatalf("hook asked about %v, OnCrash fired %d times", asked, fired)
				}
				if appends, _ := w.Stats(); appends != int64(k) || !w.Crashed() {
					t.Fatalf("Stats() = %d appends, crashed %v, want %d and true", appends, w.Crashed(), k)
				}
				snap, stats, err := ReplayFile(w.path)
				if err != nil || stats.Records != k || stats.TornTail != (mode == CrashTorn) || stats.Skipped != 0 {
					t.Fatalf("replay: %+v, %v", stats, err)
				}
				switch {
				case k == 1:
					if len(snap.Tasks) != 0 {
						t.Fatalf("replay found %d tasks before the description", len(snap.Tasks))
					}
				case k == 2:
					if ts := snap.Tasks[0]; ts.Pilot != "" || ts.State != states.TaskNew {
						t.Fatalf("replayed task %+v, want described and no more", ts)
					}
				default:
					path := []states.State{states.TaskNew, chain[0].State, chain[1].State}
					if ts := snap.Tasks[0]; ts.Pilot != "pilot.0001" || ts.State != path[k-3] {
						t.Fatalf("replayed task %+v, want bound and in %s", ts, path[k-3])
					}
				}
			})
		}
	}
}

// openFDs counts the process's open descriptors, or reports that it cannot.
func openFDs() (int, bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	return len(fds), err == nil
}

// TestWriterReleasesFileAndFlusher: however a writer ends — a crash-hook
// verdict (lost or torn), Crash or Close — its descriptor is closed and its
// flusher gone, and Crash and Close after that are no-ops. A writer killed by
// a verdict used to keep both: the verdict set crashed, and Crash and Close
// both return early on a crashed writer.
func TestWriterReleasesFileAndFlusher(t *testing.T) {
	const n = 50
	dir := t.TempDir()
	fdsBefore, haveFDs := openFDs()
	goroutinesBefore := runtime.NumGoroutine()
	ends := map[string]func(*Writer){
		"lost": func(w *Writer) {
			w.SetCrashHook(func(Record) CrashMode { return CrashLost })
			_ = w.AppendBind(BindBody{Entity: "task", UID: "t", Pilot: "p"})
		},
		"torn": func(w *Writer) {
			w.SetCrashHook(func(Record) CrashMode { return CrashTorn })
			_ = w.AppendBind(BindBody{Entity: "task", UID: "t", Pilot: "p"})
		},
		"crash": (*Writer).Crash,
		"close": func(w *Writer) { _ = w.Close() },
	}
	for name, end := range ends {
		for i := 0; i < n; i++ {
			w, err := Open(Config{Path: filepath.Join(dir, fmt.Sprintf("%s.%d", name, i)), Clock: simtime.NewReal()})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, w, KindSession, SessionBody{UID: "s", Incarnation: 1})
			end(w)
			if name != "close" && !w.Crashed() {
				t.Fatalf("%s: writer not crashed", name)
			}
			if name == "lost" || name == "torn" {
				// The verdict only signalled the flusher; it ends on its own.
				select {
				case <-w.done:
				case <-time.After(2 * time.Second):
					t.Fatalf("%s: flusher still running after the verdict", name)
				}
				if err := w.f.Close(); !errors.Is(err, os.ErrClosed) {
					t.Fatalf("%s: descriptor still open after the verdict (second close: %v)", name, err)
				}
			}
			w.Crash()
			if err := w.Close(); err != nil {
				t.Fatalf("%s: Close afterwards: %v", name, err)
			}
			w.Crash()
		}
	}
	if fds, _ := openFDs(); haveFDs && fds != fdsBefore {
		t.Errorf("%d descriptors open, %d before the %d writers", fds, fdsBefore, n*len(ends))
	}
	// Every flusher was waited for above; what is left is the runtime's.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutinesBefore; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the writers", runtime.NumGoroutine(), goroutinesBefore)
		}
	}
}

func TestWriterClosedAndCrashIdempotent(t *testing.T) {
	w := openTestWriter(t)
	mustAppend(t, w, KindSession, SessionBody{UID: "s"})
	w.Crash()
	w.Crash() // idempotent
	if !w.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after Crash: %v", err)
	}

	w2 := openTestWriter(t)
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w2.Append(KindSession, SessionBody{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close err = %v, want ErrClosed", err)
	}
}

// heldClock returns a virtual clock with the test goroutine registered on it
// until the test ends: time moves only when the test sleeps.
func heldClock(t *testing.T) *simtime.Virtual {
	clock := simtime.NewVirtualAuto(time.Unix(0, 0))
	clock.AddRunner()
	t.Cleanup(clock.DoneRunner)
	return clock
}

func TestFlusherSyncsOnClock(t *testing.T) {
	clock := heldClock(t)
	w, err := Open(Config{
		Path:       filepath.Join(t.TempDir(), "j"),
		Clock:      clock,
		FlushEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	synced := make(chan struct{}, 1)
	w.mu.Lock()
	fsync := w.fsync
	w.fsync = func() error {
		synced <- struct{}{}
		return fsync()
	}
	w.mu.Unlock()
	mustAppend(t, w, KindSession, SessionBody{UID: "s"})
	clock.Sleep(100 * time.Millisecond) // the tick, armed at Open, fires first
	select {
	case <-synced:
	case <-time.After(10 * time.Second):
		t.Fatal("the flusher did not sync a dirty journal on its tick")
	}
	if appends, syncs := w.Stats(); appends != 1 || syncs != 1 {
		t.Fatalf("Stats() = %d appends, %d syncs, want 1, 1", appends, syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFlusherSyncsOutsideLock blocks the flusher inside fsync and holds the
// writer to what the durability model promises meanwhile: appends go on, what
// they write is the next tick's to sync, and a Close that arrives while a
// sync is blocked waits for it, syncs the rest and leaves a replayable file.
func TestFlusherSyncsOutsideLock(t *testing.T) {
	clock := heldClock(t)
	path := filepath.Join(t.TempDir(), "j")
	w, err := Open(Config{Path: path, Clock: clock, FlushEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	w.mu.Lock()
	fsync := w.fsync
	w.fsync = func() error {
		entered <- struct{}{}
		<-release
		return fsync()
	}
	w.mu.Unlock()
	tick := func() {
		t.Helper()
		clock.Sleep(100 * time.Millisecond)
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the flusher did not sync a dirty journal on its tick")
		}
	}
	stats := func(wantAppends, wantSyncs int64) {
		t.Helper()
		if appends, syncs := w.Stats(); appends != wantAppends || syncs != wantSyncs {
			t.Fatalf("Stats() = %d appends, %d syncs, want %d, %d", appends, syncs, wantAppends, wantSyncs)
		}
	}
	bind := BindBody{Entity: "task", UID: "t1", Pilot: "p1"}

	mustAppend(t, w, KindSession, SessionBody{UID: "s"})
	tick() // sync 1 is blocked, and not under the lock:
	appended := make(chan error, 1)
	go func() { appended <- w.AppendBind(bind) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("append during a sync: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an append waited for the fsync")
	}
	stats(2, 1)
	release <- struct{}{}
	tick() // sync 2: what was written during sync 1
	stats(2, 2)
	release <- struct{}{}

	mustAppend(t, w, KindBind, bind)
	tick() // sync 3 is blocked when Close arrives
	mustAppend(t, w, KindBind, bind)
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	release <- struct{}{}
	<-entered // sync 4: Close's own, for the record sync 3 did not cover
	release <- struct{}{}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	stats(4, 4)
	if _, rs, err := ReplayFile(path); err != nil || rs.Records != 4 || rs.TornTail || rs.Invalid != 0 {
		t.Fatalf("replay after Close = %+v, %v, want 4 whole records", rs, err)
	}
}

func TestMaxSeqSuffix(t *testing.T) {
	uids := []string{"task.0001", "task.0007", "task.0003", "service.0002", "task.00x1"}
	if got := MaxSeqSuffix(uids, "task."); got != 7 {
		t.Fatalf("MaxSeqSuffix = %d, want 7", got)
	}
	if got := MaxSeqSuffix(uids, "pilot."); got != 0 {
		t.Fatalf("MaxSeqSuffix no match = %d, want 0", got)
	}
}

// TestTaskUIDMatchesSprintf pins the UIDs the managers and the pilots mint
// without fmt to the bytes fmt gave them, and to the counter MaxSeqSuffix
// recovers from them.
func TestTaskUIDMatchesSprintf(t *testing.T) {
	for _, owner := range []string{"session.0a1b2c3d", "", strings.Repeat("pilot.", 20)} {
		for _, seq := range []int{0, 1, 9, 10, 42, 99999, 100000, 999999, 1000000, 123456789} {
			got, want := spec.TaskUID(owner, seq), fmt.Sprintf("%s.task.%06d", owner, seq)
			if got != want {
				t.Errorf("TaskUID(%q, %d) = %q, want %q", owner, seq, got, want)
			}
			if n := MaxSeqSuffix([]string{got}, owner+".task."); n != seq {
				t.Errorf("MaxSeqSuffix(%q) = %d, want %d", got, n, seq)
			}
		}
	}
}

// decodeOne is decodeRecord for a caller that wants the record alone.
func decodeOne(data []byte) (Record, int, error) {
	var d decoded
	n, err := decodeRecord(data, &d)
	if err != nil {
		return Record{}, 0, err
	}
	return d.Record, n, nil
}

func TestDecodeRecordErrors(t *testing.T) {
	if _, _, err := decodeOne(nil); err == nil {
		t.Fatal("empty buffer decoded")
	}
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	if _, _, err := decodeOne(buf.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized prefix err = %v, want ErrTooLarge", err)
	}
}

// frameOffsets returns the byte offset of every framed record in data.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off < len(data) {
		_, n, err := decodeOne(data[off:])
		if err != nil {
			t.Fatalf("frameOffsets: decode at %d: %v", off, err)
		}
		offs = append(offs, off)
		off += n
	}
	return offs
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// sanity check that record bodies marshal cleanly (guards against adding
// unmarshalable fields to the body structs).
func TestBodiesMarshal(t *testing.T) {
	for _, body := range []any{
		SessionBody{}, PilotBody{}, TaskBody{}, ServiceBody{},
		BindBody{}, TransitionBody{}, EndpointBody{},
	} {
		if _, err := json.Marshal(body); err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
	}
}

// TestReplayFileStreamsLikeReplay holds ReplayFile, which reads the journal
// a buffer at a time, to replay on the same bytes: records that straddle a
// buffer's end, one longer than the buffer, a tail torn at every kind of
// place and a corrupt record far into the file give the same snapshot, the
// same stats and the same error.
func TestReplayFileStreamsLikeReplay(t *testing.T) {
	w := openTestWriter(t)
	writeBasicJournal(t, w)
	for i := 0; i < 1500; i++ { // ~200 kB of transitions: three buffers' worth
		mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "NEW", To: "TMGR_SCHEDULING"})
	}
	long := strings.Repeat("n", 3*replayBuffer+17)
	mustAppend(t, w, kindTask, TaskBody{UID: "big", Desc: spec.TaskDescription{UID: "big", Name: long, Cores: 1}})
	mustAppend(t, w, KindTransition, TransitionBody{Entity: "task", UID: "big", From: "NEW", To: "TMGR_SCHEDULING"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, w.path)
	frames := frameOffsets(t, data)
	bigAt := frames[len(frames)-2]

	check := func(what string, data []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snapF, statsF, errF := ReplayFile(path)
		snapM, statsM, errM := replay(data)
		if (errF == nil) != (errM == nil) || (errF != nil && errF.Error() != errM.Error()) {
			t.Fatalf("%s: ReplayFile err %v, replay err %v", what, errF, errM)
		}
		if !reflect.DeepEqual(statsF, statsM) || !reflect.DeepEqual(snapF, snapM) {
			t.Fatalf("%s: ReplayFile stats %+v, replay stats %+v (or the snapshots differ)", what, statsF, statsM)
		}
	}
	check("whole", data)
	if snap, stats, _ := ReplayFile(w.path); stats.Records != len(frames) || stats.ValidBytes != int64(len(data)) ||
		snap.Tasks[1].Desc.Name != long || snap.Tasks[1].State != states.TaskTmgrScheduling {
		t.Fatalf("whole: stats %+v", stats)
	}
	for _, cut := range []int{0, 1, headerSize, replayBuffer - 1, replayBuffer, replayBuffer + 1, 2 * replayBuffer,
		bigAt, bigAt + 3, bigAt + headerSize, bigAt + replayBuffer, len(data) - 1, frames[len(frames)-1]} {
		check(fmt.Sprintf("cut at %d", cut), data[:cut])
	}
	for _, at := range []int{frames[3] + headerSize, frames[1200] + 2, bigAt + 2*replayBuffer, frames[len(frames)-1] + 20} {
		bad := bytes.Clone(data)
		bad[at] ^= 0xff
		check(fmt.Sprintf("flipped byte %d", at), bad)
	}
	huge := bytes.Clone(data)
	copy(huge[frames[900]:], []byte{0xff, 0xff, 0xff, 0xff}) // a length no record may have
	check("oversized length prefix", huge)
	if _, stats, err := ReplayFile(filepath.Join(t.TempDir(), "missing")); err == nil || stats == nil {
		t.Fatalf("missing file: stats %v, err %v", stats, err)
	}
}

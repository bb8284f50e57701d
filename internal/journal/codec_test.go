package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// encodeRecordJSON frames rec with encoding/json alone: length prefix, CRC,
// reflected payload. It was the writer's encoder up to PR 14 and is the
// oracle the hand-written codec is held to, byte for byte.
func encodeRecordJSON(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal %s record: %w", rec.Kind, err)
	}
	if len(payload) > MaxRecordSize {
		return nil, ErrTooLarge
	}
	return frameOf(payload), nil
}

// frameOf puts the length prefix and CRC in front of payload.
func frameOf(payload []byte) []byte {
	frame := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)
	return frame
}

// oracleFrame is the frame the PR 14 writer wrote for one Append.
func oracleFrame(kind Kind, seq uint64, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return encodeRecordJSON(Record{Kind: kind, Seq: seq, Body: raw})
}

// scriptRec is one Append of a scripted journal.
type scriptRec struct {
	kind Kind
	body any
}

// parentScript lists the records testdata/parent.wal holds: every record
// kind, strings encoding/json escapes, fixed-zone and sub-second stamps,
// one record for every skip reason, and the record whose write tears. The
// file was written by appending exactly these with the journal package of
// commit 83baa5c (PR 14), parent.golden.json by that commit's ReplayFile.
func parentScript() (recs []scriptRec, torn scriptRec) {
	t0 := time.Date(2025, 3, 4, 5, 6, 7, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	east := time.FixedZone("east", 7*3600)
	app := func(kind Kind, body any) { recs = append(recs, scriptRec{kind, body}) }
	tr := func(entity, uid, from, to string, t time.Time) {
		app(KindTransition, TransitionBody{Entity: entity, UID: uid, From: from, To: to, At: t})
	}
	app(KindSession, SessionBody{UID: "session.0001", Seed: 42, Incarnation: 1, SchedPolicy: "backfill", Router: "capacity-fit", FastBoot: true})
	app(KindPilot, PilotBody{UID: "pilot.0001", Desc: spec.PilotDescription{UID: "pilot.0001", Platform: "r3", Nodes: 2}})
	tr("pilot", "pilot.0001", "NEW", "PMGR_LAUNCHING", at(1))
	tr("pilot", "pilot.0001", "PMGR_LAUNCHING", "PMGR_ACTIVE", at(2))
	// task.0001: the full happy path, sub-second and fixed-zone stamps.
	app(KindTask, TaskBody{UID: "task.0001", Desc: spec.TaskDescription{UID: "task.0001", Cores: 1, Duration: rng.ConstDuration(3 * time.Second)}})
	tr("task", "task.0001", "NEW", "TMGR_SCHEDULING", at(3).Add(123456789))
	app(KindBind, BindBody{Entity: "task", UID: "task.0001", Pilot: "pilot.0001"})
	tr("task", "task.0001", "TMGR_SCHEDULING", "AGENT_STAGING_INPUT", at(4).In(east))
	tr("task", "task.0001", "AGENT_STAGING_INPUT", "AGENT_SCHEDULING", at(5))
	tr("task", "task.0001", "AGENT_SCHEDULING", "AGENT_EXECUTING", at(6))
	tr("task", "task.0001", "AGENT_EXECUTING", "AGENT_STAGING_OUTPUT", at(7))
	tr("task", "task.0001", "AGENT_STAGING_OUTPUT", "DONE", at(8))
	// A UID encoding/json escapes: <, & and a quote, a tab, U+2028, é.
	odd := "task.\"<odd>&\t\u2028é"
	app(KindTask, TaskBody{UID: odd, Desc: spec.TaskDescription{UID: odd, Cores: 2, GPUs: 1}})
	app(KindBind, BindBody{Entity: "task", UID: odd, Pilot: "pilot.0001"})
	tr("task", odd, "NEW", "TMGR_SCHEDULING", at(9))
	tr("task", odd, "TMGR_SCHEDULING", "FAILED", at(10))
	// Every skip reason replay accounts for.
	tr("task", "task.0001", "AGENT_STAGING_OUTPUT", "DONE", at(11)) // duplicate
	tr("task", odd, "AGENT_SCHEDULING", "AGENT_EXECUTING", at(12))  // out of order
	tr("task", "ghost", "NEW", "TMGR_SCHEDULING", at(13))           // unknown uid
	tr("job", "task.0001", "NEW", "DONE", at(14))                   // unknown entity
	tr("pilot", "pilot.0001", "PMGR_ACTIVE", "NEW", at(15))         // illegal
	app(KindTask, TaskBody{UID: "task.0001", Desc: spec.TaskDescription{UID: "task.0001"}})
	app(KindBind, BindBody{Entity: "task", UID: "ghost", Pilot: "pilot.0001"})
	app(Kind("bogus"), map[string]int{"x": 1})
	app(KindSession, SessionBody{UID: "stale", Incarnation: 0})
	// A service: publication, suspension, machine restart, withdrawal.
	app(KindService, ServiceBody{UID: "service.0001", Desc: spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{UID: "service.0001", Cores: 1}, Model: "noop",
	}})
	app(KindBind, BindBody{Entity: "service", UID: "service.0001", Pilot: "pilot.0001"})
	tr("service", "service.0001", "NEW", "SMGR_SCHEDULING", at(16))
	ep := proto.Endpoint{ServiceUID: "service.0001", Model: "noop", Address: "pilot.0001.service.0001", Incarnation: 1}
	app(KindEndpoint, EndpointBody{Op: OpPublish, UID: "service.0001", Endpoint: ep, Generation: 1})
	app(KindEndpoint, EndpointBody{Op: OpSuspend, UID: "service.0001"})
	tr("service", "service.0001", "SMGR_SCHEDULING", "FAILED", at(17))
	tr("service", "service.0001", "NEW", "SMGR_SCHEDULING", at(18))
	app(KindEndpoint, EndpointBody{Op: OpPublish, UID: "service.0001", Endpoint: ep, Generation: 2})
	app(KindEndpoint, EndpointBody{Op: "bogus", UID: "service.0001"})
	app(KindEndpoint, EndpointBody{Op: OpWithdraw, UID: "ghost"})
	app(KindSession, SessionBody{UID: "session.0001", Seed: 42, Incarnation: 2})
	// The process dies mid-write of one more transition.
	return recs, scriptRec{KindTransition, TransitionBody{Entity: "service", UID: "service.0001",
		From: "SMGR_SCHEDULING", To: "AGENT_STAGING_INPUT", At: at(19)}}
}

// TestReplayParentWAL replays the WAL the parent commit wrote and holds the
// snapshot and the stats to what the parent commit's replay made of it.
func TestReplayParentWAL(t *testing.T) {
	snap, stats, err := ReplayFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	got, err := json.MarshalIndent(struct {
		Snapshot *Snapshot
		Stats    *ReplayStats
	}{snap, stats}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := readFile(t, filepath.Join("testdata", "parent.golden.json"))
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("replay of parent.wal differs from parent.golden.json:\n%s", got)
	}
	if stats.Records != 36 || !stats.TornTail || len(stats.SkipReasons) != 11 {
		t.Fatalf("stats = %+v, want 36 records, a torn tail and all 11 skip reasons", stats)
	}
}

// chainOf is b as AppendTransitions takes it: a chain of one step.
func chainOf(b TransitionBody) (entity, uid string, from states.State, steps []states.Record) {
	return b.Entity, b.UID, states.State(b.From), []states.Record{{State: states.State(b.To), At: b.At}}
}

// appendTyped is the writer's other door: the typed entry point of a task,
// bind or transition record (a chain of one), Append for every other.
func appendTyped(w *Writer, kind Kind, body any) error {
	switch b := body.(type) {
	case TaskBody:
		if kind == KindTask {
			return w.AppendTask(b)
		}
	case BindBody:
		if kind == KindBind {
			return w.AppendBind(b)
		}
	case TransitionBody:
		if kind == KindTransition {
			return w.AppendTransitions(chainOf(b))
		}
	}
	return w.Append(kind, body)
}

// doors are the two ways a record reaches the writer; the oracle holds both.
var doors = []struct {
	name   string
	append func(*Writer, Kind, any) error
}{
	{"Append", (*Writer).Append},
	{"typed", appendTyped},
}

// appendChained appends recs through the typed doors, every run of
// transitions an entity made back to back (each leaving the state the one
// before it entered) with one AppendTransitions call.
func appendChained(w *Writer, recs []scriptRec) error {
	for i := 0; i < len(recs); {
		first, ok := recs[i].body.(TransitionBody)
		if !ok || recs[i].kind != KindTransition {
			if err := appendTyped(w, recs[i].kind, recs[i].body); err != nil {
				return err
			}
			i++
			continue
		}
		entity, uid, from, steps := chainOf(first)
		for i++; i < len(recs); i++ {
			next, ok := recs[i].body.(TransitionBody)
			if !ok || recs[i].kind != KindTransition || next.Entity != entity || next.UID != uid ||
				states.State(next.From) != steps[len(steps)-1].State {
				break
			}
			steps = append(steps, states.Record{State: states.State(next.To), At: next.At})
		}
		if err := w.AppendTransitions(entity, uid, from, steps); err != nil {
			return err
		}
	}
	return nil
}

// appendDispatched appends recs like appendChained, except that every bind goes
// through AppendDispatch: with the task description right before it if it is of
// the same UID, and with the chain of transitions that entity made right after
// it. In parent.wal that is the escaped UID's description, bind and two
// transitions in one write, task.0001's bind with the five transitions after it,
// fixed-zone stamp included, the service's with its first, and a bind alone.
func appendDispatched(w *Writer, recs []scriptRec) error {
	for i := 0; i < len(recs); {
		var task *TaskBody
		if tb, ok := recs[i].body.(TaskBody); ok && recs[i].kind == KindTask && i+1 < len(recs) {
			if next, ok := recs[i+1].body.(BindBody); ok && recs[i+1].kind == KindBind && next.UID == tb.UID {
				task = &tb
				i++
			}
		}
		bind, ok := recs[i].body.(BindBody)
		if !ok || recs[i].kind != KindBind {
			// Not a dispatch: up to the next bind (or description), as before.
			j := i + 1
			for j < len(recs) && recs[j].kind != KindBind && recs[j].kind != KindTask {
				j++
			}
			if err := appendChained(w, recs[i:j]); err != nil {
				return err
			}
			i = j
			continue
		}
		var from states.State
		var steps []states.Record
		for i++; i < len(recs); i++ {
			next, ok := recs[i].body.(TransitionBody)
			if !ok || recs[i].kind != KindTransition || next.Entity != bind.Entity || next.UID != bind.UID ||
				(len(steps) > 0 && states.State(next.From) != steps[len(steps)-1].State) {
				break
			}
			if len(steps) == 0 {
				from = states.State(next.From)
			}
			steps = append(steps, states.Record{State: states.State(next.To), At: next.At})
		}
		if err := w.AppendDispatch(task, bind, from, steps); err != nil {
			return err
		}
	}
	return nil
}

// TestWriterMatchesParentWAL appends the script parent.wal was written
// with, through either door: the file must equal the encoding/json oracle's
// frames and the parent commit's file, byte for byte, torn tail included.
func TestWriterMatchesParentWAL(t *testing.T) {
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			testWriterMatchesParentWAL(t, func(w *Writer, recs []scriptRec) error {
				for _, r := range recs {
					if err := door.append(w, r.kind, r.body); err != nil {
						return fmt.Errorf("append %+v: %w", r.body, err)
					}
				}
				return nil
			})
		})
	}
	// The script's chains (the pilot's two states, the task's five after its
	// bind, fixed-zone stamp included) each in one write.
	t.Run("chained", func(t *testing.T) { testWriterMatchesParentWAL(t, appendChained) })
	// And every bind with what a dispatch writes around it.
	t.Run("dispatched", func(t *testing.T) { testWriterMatchesParentWAL(t, appendDispatched) })
}

func testWriterMatchesParentWAL(t *testing.T, appendAll func(*Writer, []scriptRec) error) {
	w := openTestWriter(t)
	recs, torn := parentScript()
	if err := appendAll(w, recs); err != nil {
		t.Fatal(err)
	}
	if appends, _ := w.Stats(); appends != int64(len(recs)) {
		t.Fatalf("Stats() = %d appends, want %d", appends, len(recs))
	}
	var want []byte
	for i, r := range recs {
		frame, err := oracleFrame(r.kind, uint64(i+1), r.body)
		if err != nil {
			t.Fatalf("oracle seq %d: %v", i+1, err)
		}
		want = append(want, frame...)
	}
	w.SetCrashHook(func(Record) CrashMode { return CrashTorn })
	if err := appendAll(w, []scriptRec{torn}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn append err = %v, want ErrCrashed", err)
	}
	frame, err := oracleFrame(torn.kind, uint64(len(recs)+1), torn.body)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, frame[:headerSize+(len(frame)-headerSize)/2]...)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := readFile(t, w.Path())
	if !bytes.Equal(got, want) {
		t.Fatal("WAL differs from the encoding/json oracle's frames")
	}
	if parent := readFile(t, filepath.Join("testdata", "parent.wal")); !bytes.Equal(got, parent) {
		t.Fatalf("WAL differs from the parent commit's: %d bytes vs %d", len(got), len(parent))
	}
}

// FuzzAppendMatchesJSON holds Writer.Append to the oracle: whatever the
// strings and the timestamp, the file holds the oracle's frame byte for
// byte, or both refuse the record.
func FuzzAppendMatchesJSON(f *testing.F) {
	year := func(y int) int64 { return time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC).Unix() }
	f.Add("transition", "task", "task.0001", "NEW", "TMGR_SCHEDULING", int64(1741064767), int64(0), int32(0))
	f.Add("bind", "task", "task.0001", "pilot.0001", "", int64(0), int64(0), int32(0))
	f.Add("transition", `a"b`, `c\d`, "<e>&f", "g\x00\x1f\x7f\n\t\b\f", int64(1), int64(123456789), int32(7*3600))
	f.Add("tran\"sition<", "\xff\xfe", "\u2028\u2029", "é日本", "\xed\xa0\x80", int64(1), int64(999999999), int32(-3600-1800))
	f.Add("transition", "", "", "", "", year(0), int64(1), int32(1))
	f.Add("transition", "", "", "", "", year(-1), int64(0), int32(0))
	f.Add("transition", "", "", "", "", year(9999), int64(500), int32(59))
	f.Add("transition", "", "", "", "", year(10000), int64(0), int32(0))
	f.Add("transition", "", "", "", "", int64(0), int64(0), int32(24*3600))
	f.Add("transition", "", "", "", "", int64(0), int64(0), int32(-23*3600-3599))
	f.Add("transition", "", "", "", "", int64(0), int64(0), int32(100*3600))

	// One writer for the whole run, on a clock that never ticks: the fuzz
	// function must be cheap and its coverage deterministic.
	path := filepath.Join(f.TempDir(), "wal")
	w, err := Open(Config{Path: path, Clock: simtime.NewVirtual(time.Unix(0, 0))})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = w.Close() })
	f.Fuzz(func(t *testing.T, kind, a, b, c, d string, sec, nsec int64, zone int32) {
		at := time.Unix(sec, nsec).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("z", int(zone)))
		}
		// Each body under the fuzzed kind, where both doors are Append, and
		// under its own, where the second is its typed entry point.
		for _, r := range []scriptRec{
			{Kind(kind), TransitionBody{Entity: a, UID: b, From: c, To: d, At: at}},
			{Kind(kind), BindBody{Entity: a, UID: b, Pilot: c}},
			{KindTransition, TransitionBody{Entity: a, UID: b, From: c, To: d, At: at}},
			{KindBind, BindBody{Entity: a, UID: b, Pilot: c}},
			{KindTask, TaskBody{UID: a, Desc: spec.TaskDescription{UID: b, Name: c, Pilot: d, Cores: int(zone), MemGB: float64(nsec)}}},
		} {
			for _, door := range doors {
				// The file is opened O_APPEND: the next record lands at offset 0.
				if err := os.Truncate(path, 0); err != nil {
					t.Fatal(err)
				}
				appends, _ := w.Stats()
				gotErr := door.append(w, r.kind, r.body)
				got := readFile(t, path)
				want, wantErr := oracleFrame(r.kind, uint64(appends)+1, r.body)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s %+v: err %v, oracle err %v", door.name, r.body, gotErr, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %+v:\n got %q\nwant %q", door.name, r.body, got, want)
				}
			}
		}
		// The batched door: there and back under one stamp, so that the
		// oracle takes both records or neither.
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		appends, _ := w.Stats()
		gotErr := w.AppendTransitions(a, b, states.State(c), []states.Record{{State: states.State(d), At: at}, {State: states.State(c), At: at}})
		got := readFile(t, path)
		there, wantErr := oracleFrame(KindTransition, uint64(appends)+1, TransitionBody{Entity: a, UID: b, From: c, To: d, At: at})
		back, _ := oracleFrame(KindTransition, uint64(appends)+2, TransitionBody{Entity: a, UID: b, From: d, To: c, At: at})
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("chain: err %v, oracle err %v", gotErr, wantErr)
		}
		if want := append(there, back...); !bytes.Equal(got, want) {
			t.Fatalf("chain:\n got %q\nwant %q", got, want)
		}
		// The dispatch door, with and without the description: the oracle's
		// frames of description, bind and that chain, in that order — less what
		// the oracle refuses, which must not take the rest with it.
		task := TaskBody{UID: b, Desc: spec.TaskDescription{UID: b, Name: c, Pilot: d, Cores: int(zone), MemGB: float64(nsec)}}
		bind := BindBody{Entity: a, UID: b, Pilot: c}
		for _, desc := range []*TaskBody{&task, nil} {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			appends, _ := w.Stats()
			gotErr := w.AppendDispatch(desc, bind, states.State(c), []states.Record{{State: states.State(d), At: at}, {State: states.State(c), At: at}})
			got := readFile(t, path)
			recs := []scriptRec{{KindBind, bind},
				{KindTransition, TransitionBody{Entity: a, UID: b, From: c, To: d, At: at}},
				{KindTransition, TransitionBody{Entity: a, UID: b, From: d, To: c, At: at}}}
			if desc != nil {
				recs = append([]scriptRec{{KindTask, task}}, recs...)
			}
			var want []byte
			wantErr := error(nil)
			for _, r := range recs {
				frame, err := oracleFrame(r.kind, uint64(appends)+1, r.body)
				if err != nil {
					wantErr = err
					continue
				}
				want = append(want, frame...)
				appends++
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("dispatch: err %v, oracle err %v", gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("dispatch (described: %v):\n got %q\nwant %q", desc != nil, got, want)
			}
		}
	})
}

// checkPayload decodes payload with the fast path and with encoding/json
// and fails on any disagreement: the fast path may decline, never differ.
func checkPayload(t *testing.T, payload []byte) {
	t.Helper()
	var slow Record
	slowErr := json.Unmarshal(payload, &slow)
	var fast decoded
	if decodeFast(payload, &fast) {
		if slowErr != nil {
			t.Fatalf("fast path accepted %q, encoding/json: %v", payload, slowErr)
		}
		if fast.Kind != slow.Kind || fast.Seq != slow.Seq || !bytes.Equal(fast.Body, slow.Body) {
			t.Fatalf("%q: fast %+v, encoding/json %+v", payload, fast.Record, slow)
		}
		if fast.Kind == KindTask {
			checkTaskBody(t, fast.Body)
		}
	}
	// Framed, the record meets the verdict and the value of encoding/json
	// whichever path took it.
	if len(payload) <= MaxRecordSize {
		rec, n, err := decodeOne(frameOf(payload))
		if (err == nil) != (slowErr == nil) {
			t.Fatalf("%q: decodeRecord err %v, encoding/json err %v", payload, err, slowErr)
		}
		if err == nil && (n != headerSize+len(payload) || rec.Kind != slow.Kind || rec.Seq != slow.Seq || !bytes.Equal(rec.Body, slow.Body)) {
			t.Fatalf("%q: decodeRecord %+v, encoding/json %+v", payload, rec, slow)
		}
	}
	// The input again, as a body: whichever path takes it, verdict and value
	// are those of encoding/json. (The timestamp's value is not kept; the
	// decoder that gives the verdict on it is encoding/json's own.)
	var tj TransitionBody
	tjErr := json.Unmarshal(payload, &tj)
	d := decoded{Record: Record{Kind: KindTransition, Body: payload}}
	d.v, d.fast = scanBody(payload, transitionKeys, true)
	tb, err := d.strings()
	if (err == nil) != (tjErr == nil) {
		t.Fatalf("%q: transition err %v, encoding/json err %v", payload, err, tjErr)
	}
	if got := [4]string{string(tb[0]), string(tb[1]), string(tb[2]), string(tb[3])}; err == nil && got != [4]string{tj.Entity, tj.UID, tj.From, tj.To} {
		t.Fatalf("%q: transition %q, encoding/json %+v", payload, got, tj)
	}
	var bj BindBody
	bjErr := json.Unmarshal(payload, &bj)
	d.Kind = KindBind
	d.v, d.fast = scanBody(payload, bindKeys, false)
	bb, err := d.strings()
	if (err == nil) != (bjErr == nil) {
		t.Fatalf("%q: bind err %v, encoding/json err %v", payload, err, bjErr)
	}
	if got := [3]string{string(bb[0]), string(bb[1]), string(bb[2])}; err == nil && got != [3]string{bj.Entity, bj.UID, bj.Pilot} {
		t.Fatalf("%q: bind %q, encoding/json %+v", payload, got, bj)
	}
	checkTaskBody(t, payload)
}

// prefilledTask is a decode target with every field set: a decoder that
// forgets to write one, or writes one it should leave, shows against
// encoding/json, which merges into what it is given.
func prefilledTask() TaskBody {
	return TaskBody{UID: "old", Desc: spec.TaskDescription{
		UID: "old", Name: "old", Cores: 9, GPUs: 9, MemGB: 9, Duration: rng.ConstDuration(9), Priority: 9, Pilot: "old",
		InputStaging: []spec.StagingDirective{{Source: "a", Target: "b"}}, OutputStaging: []spec.StagingDirective{},
		Metadata: map[string]string{"k": "v"},
	}}
}

// checkTaskBody holds scanTask to encoding/json on one body: if it takes the
// body, the target reads as json.Unmarshal leaves it; if it declines, the
// target is untouched.
func checkTaskBody(t *testing.T, body []byte) {
	t.Helper()
	fast, slow := prefilledTask(), prefilledTask()
	if !scanTask(body, &fast) {
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%q: scanTask declined and left %+v", body, fast)
		}
		return
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("scanTask accepted %q, encoding/json: %v", body, err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("%q:\nscanTask        %+v\nencoding/json %+v", body, fast, slow)
	}
}

// TestDecodeFastPathTakesWriterShape pins that the records the writer
// emits do take the fast path: a decoder that declined everything would
// pass every differential check and save nothing.
func TestDecodeFastPathTakesWriterShape(t *testing.T) {
	for _, body := range []any{
		TransitionBody{Entity: "task", UID: "task.0001", From: "NEW", To: "TMGR_SCHEDULING", At: time.Unix(1, 5).In(time.FixedZone("z", -3600))},
		BindBody{Entity: "task", UID: "task.0001", Pilot: "pilot.0001"},
		TaskBody{UID: "task.0001", Desc: spec.TaskDescription{UID: "task.0001", Name: "n", Cores: 1, GPUs: 2, MemGB: 1.5e-7,
			Duration: rng.DurationDist{D: rng.Normal{Mu: 1, Sigma: 2, Min: 0}}, Priority: -3, Pilot: "pilot.0001"}},
		TaskBody{UID: "task.0002", Desc: spec.TaskDescription{UID: "other", Func: func(context.Context) error { return nil }}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		_, isTransition := scanBody(raw, transitionKeys, true)
		_, isBind := scanBody(raw, bindKeys, false)
		if !isTransition && !isBind && !scanTask(raw, new(TaskBody)) {
			t.Fatalf("body fast path declined %s", raw)
		}
	}
	w := openTestWriter(t)
	writeBasicJournal(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, w.Path())
	for _, off := range frameOffsets(t, data) {
		n := int(binary.BigEndian.Uint32(data[off:]))
		payload := data[off+headerSize : off+headerSize+n]
		if !decodeFast(payload, new(decoded)) {
			t.Fatalf("envelope fast path declined %s", payload)
		}
	}
	// Replay says which path took what: of the writer's own records only
	// those without a fast path (session, pilot) are encoding/json's.
	_, stats, err := Replay(writeTaskWAL(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	wantFast := map[string]int{"task": 3, "bind": 3, "transition": 18}
	wantJSON := map[string]int{"session": 1, "pilot": 1}
	if !reflect.DeepEqual(stats.FastDecodes, wantFast) || !reflect.DeepEqual(stats.JSONDecodes, wantJSON) {
		t.Fatalf("fast %v, encoding/json %v; want %v and %v", stats.FastDecodes, stats.JSONDecodes, wantFast, wantJSON)
	}
	// The parent commit's WAL holds what the fast path must decline: an
	// escaped UID (its task, its bind, its three transitions) and a kind
	// with no decoder.
	_, stats, err = ReplayFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = map[string]int{"session": 3, "pilot": 1, "service": 1, "endpoint": 5, "bogus": 1, "task": 1, "bind": 1, "transition": 3}
	if !reflect.DeepEqual(stats.JSONDecodes, wantJSON) {
		t.Fatalf("parent.wal: encoding/json %v, want %v", stats.JSONDecodes, wantJSON)
	}
}

// writeTaskWAL journals a session, one pilot and n tasks' full happy paths
// (8 records a task, as core writes them) and returns the file's bytes.
func writeTaskWAL(t testing.TB, n int) []byte {
	t.Helper()
	w, err := Open(Config{Path: filepath.Join(t.TempDir(), "wal"), Clock: simtime.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	app := func(kind Kind, body any) {
		if err := w.Append(kind, body); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Date(2025, 3, 4, 5, 6, 7, 123456789, time.UTC)
	app(KindSession, SessionBody{UID: "session.0001", Seed: 7, Incarnation: 1})
	app(KindPilot, PilotBody{UID: "pilot.0001", Desc: spec.PilotDescription{UID: "pilot.0001", Platform: "r3", Nodes: 2}})
	path := []string{"NEW", "TMGR_SCHEDULING", "AGENT_STAGING_INPUT", "AGENT_SCHEDULING", "AGENT_EXECUTING", "AGENT_STAGING_OUTPUT", "DONE"}
	for i := 0; i < n; i++ {
		uid := fmt.Sprintf("task.%06d", i)
		app(KindTask, TaskBody{UID: uid, Desc: spec.TaskDescription{UID: uid, Cores: 1, Duration: rng.ConstDuration(time.Second)}})
		app(KindTransition, TransitionBody{Entity: "task", UID: uid, From: path[0], To: path[1], At: at})
		app(KindBind, BindBody{Entity: "task", UID: uid, Pilot: "pilot.0001"})
		for s := 1; s < len(path)-1; s++ {
			app(KindTransition, TransitionBody{Entity: "task", UID: uid, From: path[s], To: path[s+1], At: at})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalAppendAllocBudget pins the hot appends at no allocation through
// the typed doors, a chain of three transitions and a whole dispatch included,
// and at one through Append: the boxing of the body into its
// `any`. Encoding, framing and the write reuse the pooled body buffer and the
// writer's frame buffer.
func TestJournalAppendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	w := openTestWriter(t)
	defer w.Close()
	tb := TransitionBody{Entity: "task", UID: "task.000001", From: "AGENT_SCHEDULING", To: "AGENT_EXECUTING", At: time.Now()}
	bb := BindBody{Entity: "task", UID: "task.000001", Pilot: "pilot.0001"}
	task := TaskBody{UID: "task.000001", Desc: spec.TaskDescription{UID: "task.000001", Name: "alloc-budget", Cores: 2}}
	chain := []states.Record{{State: states.TaskTmgrScheduling, At: tb.At}, {State: states.TaskStagingInput, At: tb.At}, {State: states.TaskScheduling, At: tb.At}}
	// Warm the pool and the frame buffer.
	if err := w.AppendTransitions("task", "task.000001", states.TaskNew, chain); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		append func()
	}{
		{"AppendTransitions", 0, func() { _ = w.AppendTransitions("task", "task.000001", states.TaskNew, chain) }},
		{"AppendBind", 0, func() { _ = w.AppendBind(bb) }},
		{"AppendDispatch", 0, func() { _ = w.AppendDispatch(&task, bb, states.TaskNew, chain) }},
		{"AppendDispatch(bind)", 0, func() { _ = w.AppendDispatch(nil, bb, states.TaskNew, chain) }},
		{"Append(transition)", 1, func() { _ = w.Append(KindTransition, tb) }},
		{"Append(bind)", 1, func() { _ = w.Append(KindBind, bb) }},
	} {
		if n := testing.AllocsPerRun(200, tc.append); n > tc.budget {
			t.Errorf("%s: %.1f allocs, budget %.0f", tc.name, n, tc.budget)
		}
	}
}

// TestReplayAllocBudget pins replay of a 1 000-task WAL at 1.5 allocations a
// record (41.7 at PR 14, 5 at PR 19; 1.26 measured, or 10 a task): the
// snapshot's own TaskState, UID and pilot name, and the seven of a Const
// duration through rng's encoding/json decoder. A transition allocates
// nothing. Two more objects a task exceed it.
func TestReplayAllocBudget(t *testing.T) {
	data := writeTaskWAL(t, 1000)
	var stats *ReplayStats
	n := testing.AllocsPerRun(5, func() {
		var err error
		if _, stats, err = Replay(data); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Records != 8002 || stats.Applied != 8002 {
		t.Fatalf("stats = %+v, want 8002 records all applied", stats)
	}
	per := n / float64(stats.Records)
	t.Logf("replay: %.3f allocs per record", per)
	if per > 1.5 {
		t.Errorf("replay: %.2f allocs per record, budget 1.5", per)
	}
}

// TestAppendWriteErrorSticky: a failed write() leaves a fragment (or
// nothing) where a record should be, and a record after a fragment would
// fail the whole journal's replay, so the writer refuses every later
// Append with that first error.
func TestAppendWriteErrorSticky(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	w, err := Open(Config{Path: "/dev/full", Clock: simtime.NewReal()})
	if err != nil {
		t.Skipf("open /dev/full: %v", err)
	}
	first := w.Append(KindSession, SessionBody{UID: "s"})
	if first == nil {
		t.Fatal("append to /dev/full succeeded")
	}
	for _, body := range []any{SessionBody{UID: "s"}, BindBody{}, TransitionBody{}} {
		if err := w.Append(KindSession, body); err != first {
			t.Fatalf("append after a failed write: %v, want the first error %v", err, first)
		}
	}
	if appends, _ := w.Stats(); appends != 0 {
		t.Fatalf("Stats() = %d appends, want 0", appends)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(KindSession, SessionBody{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close err = %v, want ErrClosed", err)
	}
}

func BenchmarkAppendTransition(b *testing.B) {
	w, err := Open(Config{Path: filepath.Join(b.TempDir(), "wal"), Clock: simtime.NewReal()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	body := TransitionBody{Entity: "task", UID: "task.000001", From: "AGENT_SCHEDULING", To: "AGENT_EXECUTING", At: time.Now()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(KindTransition, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	data := writeTaskWAL(b, 1000)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Replay(data); err != nil {
			b.Fatal(err)
		}
	}
}

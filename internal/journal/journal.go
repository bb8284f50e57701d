// Package journal implements the session's durability layer: an
// append-only write-ahead journal of entity descriptions, state
// transitions, placement bindings and endpoint publications. A session
// configured with a journal path appends one record per event; after a
// client crash, core.Recover replays the journal to reconstruct the
// session's last known world view and reattaches to whatever survived.
//
// Wire format: each record is framed as
//
//	[4-byte big-endian payload length][4-byte big-endian CRC-32 (IEEE) of
//	payload][JSON payload]
//
// mirroring the length-prefixed framing of the proto package. The CRC
// guards against bit rot; the length prefix makes a torn final record —
// the expected artifact of a crash mid-append — detectable and tolerable:
// replay applies every complete record and reports the tail as torn
// instead of failing the recovery.
//
// Durability model: every Append writes its record to the journal file
// synchronously (so a process crash loses at most the record being
// written), while fsync is batched on the session clock — the usual WAL
// group-commit trade: per-record write() cost without per-record fsync
// cost. The simulation only models process crashes (completed write()s
// survive in the OS page cache), so the fsync cadence is fidelity and
// accounting, not correctness.
//
// Codec: the payload bytes are encoding/json's. The writer hand-encodes the
// two hot bodies (transition, bind) and the envelope to exactly the bytes
// json.Marshal produces, and still issues one write() per Append. Replay
// has a fast path for exactly that byte shape; on any deviation it declines
// rather than guesses and hands the whole record to encoding/json, so what
// is accepted, rejected or skipped, and why, is unchanged. The encoding/json
// envelope encoder lives on in the tests as the differential oracle.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonshape"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// Journal errors.
var (
	// ErrClosed marks appends after Close.
	ErrClosed = errors.New("journal: writer closed")
	// ErrCrashed marks appends after an injected crash: the writer models
	// a dead process and silently persists nothing further.
	ErrCrashed = errors.New("journal: writer crashed")
	// ErrChecksum marks a record whose payload does not match its CRC.
	ErrChecksum = errors.New("journal: record checksum mismatch")
	// ErrTooLarge marks a length prefix beyond MaxRecordSize — framing
	// corruption replay cannot resynchronize from.
	ErrTooLarge = errors.New("journal: record exceeds maximum size")
)

// MaxRecordSize bounds one record's payload. Descriptions and transitions
// are tiny; a larger length prefix means the framing itself is corrupt.
const MaxRecordSize = 1 << 20

// DefaultFlushEvery is the default fsync batching interval on the session
// clock.
const DefaultFlushEvery = 100 * time.Millisecond

// headerSize is the per-record framing overhead (length + CRC).
const headerSize = 8

// Kind discriminates record bodies.
type Kind string

// Record kinds.
const (
	// KindSession opens a journal (and re-opens it per recovery
	// incarnation): session identity, seed and configuration.
	KindSession Kind = "session"
	// KindPilot, KindTask and KindService record a description the moment
	// the session accepts it — the WAL intent preceding the action.
	KindPilot   Kind = "pilot"
	KindTask    Kind = "task"
	KindService Kind = "service"
	// KindBind records a placement decision: which pilot a task or
	// service was dispatched to.
	KindBind Kind = "bind"
	// KindTransition records one committed entity state transition.
	KindTransition Kind = "transition"
	// KindEndpoint records a session EndpointRegistry mutation.
	KindEndpoint Kind = "endpoint"
)

// Record is one journal entry.
type Record struct {
	Kind Kind            `json:"kind"`
	Seq  uint64          `json:"seq"`
	Body json.RawMessage `json:"body"`
}

// SessionBody is the KindSession payload.
type SessionBody struct {
	UID         string `json:"uid"`
	Seed        uint64 `json:"seed"`
	Incarnation uint64 `json:"incarnation"`
	SchedPolicy string `json:"sched_policy,omitempty"`
	Router      string `json:"router,omitempty"`
	FastBoot    bool   `json:"fast_boot,omitempty"`
}

// PilotBody is the KindPilot payload.
type PilotBody struct {
	UID  string                `json:"uid"`
	Desc spec.PilotDescription `json:"desc"`
}

// TaskBody is the KindTask payload. Function payloads (TaskDescription.
// Func) are not serializable and are dropped: a recovered task that must
// be re-run re-executes its Duration payload only.
type TaskBody struct {
	UID  string               `json:"uid"`
	Desc spec.TaskDescription `json:"desc"`
}

// ServiceBody is the KindService payload.
type ServiceBody struct {
	UID  string                  `json:"uid"`
	Desc spec.ServiceDescription `json:"desc"`
}

// BindBody is the KindBind payload.
type BindBody struct {
	Entity string `json:"entity"` // "task" | "service"
	UID    string `json:"uid"`
	Pilot  string `json:"pilot"`
}

// TransitionBody is the KindTransition payload.
type TransitionBody struct {
	Entity string    `json:"entity"` // "pilot" | "task" | "service"
	UID    string    `json:"uid"`
	From   string    `json:"from"`
	To     string    `json:"to"`
	At     time.Time `json:"at"`
}

// Endpoint record operations (EndpointBody.Op).
const (
	OpPublish  = "publish"
	OpSuspend  = "suspend"
	OpWithdraw = "withdraw"
)

// EndpointBody is the KindEndpoint payload.
type EndpointBody struct {
	Op         string         `json:"op"`
	UID        string         `json:"uid"`
	Endpoint   proto.Endpoint `json:"endpoint,omitempty"`
	Generation uint64         `json:"generation,omitempty"`
}

// appendBody appends the encoding/json bytes of a transition or bind body
// (7 of the 8 records a task writes). ok is false for every other body and
// for a timestamp Time.MarshalJSON refuses (year beyond 9999, zone hour
// beyond 23): json.Marshal then encodes the one or reports the other.
func appendBody(b []byte, body any) (_ []byte, ok bool) {
	switch v := body.(type) {
	case TransitionBody:
		b = jsonshape.AppendString(append(b, `{"entity":`...), v.Entity)
		b = jsonshape.AppendString(append(b, `,"uid":`...), v.UID)
		b = jsonshape.AppendString(append(b, `,"from":`...), v.From)
		b = jsonshape.AppendString(append(b, `,"to":`...), v.To)
		b, ok = jsonshape.AppendTime(append(b, `,"at":`...), v.At)
		return append(b, '}'), ok
	case BindBody:
		b = jsonshape.AppendString(append(b, `{"entity":`...), v.Entity)
		b = jsonshape.AppendString(append(b, `,"uid":`...), v.UID)
		b = jsonshape.AppendString(append(b, `,"pilot":`...), v.Pilot)
		return append(b, '}'), true
	}
	return b, false
}

// The keys of the two hot bodies, each followed by a string.
var (
	transitionShape = []string{`{"entity":`, `,"uid":`, `,"from":`, `,"to":`, `,"at":`}
	bindShape       = []string{`{"entity":`, `,"uid":`, `,"pilot":`}
)

// scanBody matches a body of plain strings under exactly the writer's keys
// (the timestamp is one of them here) and returns the strings' spans.
func scanBody(body []byte, shape []string) (v [5]jsonshape.Span, ok bool) {
	c := jsonshape.Cursor{P: body}
	for i, l := range shape {
		c.Lit(l)
		v[i] = c.Str()
	}
	c.Lit(`}`)
	return v, c.End()
}

// unmarshalBody is the encoding/json path of a body. b is its own variable
// because &b escapes: a fast path sharing it would allocate it per record.
func unmarshalBody[T any](body []byte) (b T, err error) {
	err = json.Unmarshal(body, &b)
	return b, err
}

// decodeTransition decodes a transition body. In the writer's shape the
// timestamp goes through the decoder encoding/json would call and the
// strings share one copy of the body; anything else is encoding/json's.
func decodeTransition(body []byte) (b TransitionBody, err error) {
	v, ok := scanBody(body, transitionShape)
	if !ok || b.At.UnmarshalJSON(body[v[4].Lo-1:v[4].Hi+1]) != nil { // quotes included
		return unmarshalBody[TransitionBody](body)
	}
	s := string(body)
	b.Entity, b.UID, b.From, b.To = v[0].Of(s), v[1].Of(s), v[2].Of(s), v[3].Of(s)
	return b, nil
}

// decodeBind decodes a bind body the same way.
func decodeBind(body []byte) (BindBody, error) {
	v, ok := scanBody(body, bindShape)
	if !ok {
		return unmarshalBody[BindBody](body)
	}
	s := string(body)
	return BindBody{Entity: v[0].Of(s), UID: v[1].Of(s), Pilot: v[2].Of(s)}, nil
}

// decodeFast decodes a payload of exactly the writer's shape:
// {"kind":"<plain>","seq":<canonical uint64>,"body":<object>} with no
// whitespace and nothing after. Body aliases payload.
func decodeFast(payload []byte) (rec Record, ok bool) {
	c := jsonshape.Cursor{P: payload}
	c.Lit(`{"kind":`)
	k := c.Str()
	c.Lit(`,"seq":`)
	seq := c.Uint()
	c.Lit(`,"body":`)
	if !c.OK() || len(payload)-c.Pos() < 3 {
		return Record{}, false
	}
	body := payload[c.Pos() : len(payload)-1]
	if body[0] != '{' || body[len(body)-1] != '}' || payload[len(payload)-1] != '}' {
		return Record{}, false
	}
	rec = Record{Seq: seq, Body: body}
	switch kind := payload[k.Lo:k.Hi]; string(kind) {
	case string(KindTransition):
		rec.Kind = KindTransition // the constant: no string per hot record
		_, ok = scanBody(body, transitionShape)
	case string(KindBind):
		rec.Kind = KindBind
		_, ok = scanBody(body, bindShape)
	default:
		rec.Kind = Kind(kind)
	}
	return rec, ok || json.Valid(body)
}

// DecodeRecord decodes one framed record from the front of data. It
// returns the record, the number of bytes consumed, and an error. A short
// buffer (header or payload cut off) returns io.ErrUnexpectedEOF — the
// torn-tail signal; an empty buffer returns io.EOF. The record's Body may
// alias data.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(data) < headerSize {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	if n > MaxRecordSize {
		return Record{}, 0, ErrTooLarge
	}
	if len(data) < headerSize+n {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	payload := data[headerSize : headerSize+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:8]) {
		return Record{}, 0, ErrChecksum
	}
	rec, ok := decodeFast(payload)
	if !ok {
		var err error
		if rec, err = unmarshalBody[Record](payload); err != nil {
			return Record{}, 0, fmt.Errorf("journal: decode record: %w", err)
		}
	}
	return rec, headerSize + n, nil
}

// --- Writer -----------------------------------------------------------------

// CrashMode is a fault-injection verdict returned by a crash hook.
type CrashMode int

// Crash modes.
const (
	// NoCrash appends the record normally.
	NoCrash CrashMode = iota
	// CrashLost simulates the process dying before the record's write():
	// the record is lost entirely and the writer is dead.
	CrashLost
	// CrashTorn simulates the process dying mid-write(): a prefix of the
	// framed record lands in the file and the writer is dead. Replay
	// tolerates exactly this artifact as a torn tail.
	CrashTorn
)

// Config parameterizes a Writer.
type Config struct {
	// Path is the journal file (created or appended to).
	Path string
	// Clock paces the fsync batching. Required.
	Clock simtime.Clock
	// FlushEvery is the fsync batching interval on Clock (default
	// DefaultFlushEvery).
	FlushEvery time.Duration
}

// Writer appends records to a journal file. Appends are synchronous
// write()s under a mutex; fsync runs on the session clock's cadence.
type Writer struct {
	f     *os.File
	path  string
	clock simtime.Clock

	mu        sync.Mutex
	seq       uint64
	frame     []byte // the record being written: header, then payload
	failed    error  // first write() error; sticky, the WAL ends in its fragment
	closed    bool
	crashed   bool
	dirty     bool
	appends   int64
	syncs     int64
	crashHook func(Record) CrashMode
	onCrash   func()

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Open opens (or creates) the journal at cfg.Path for appending and
// starts the flusher.
func Open(cfg Config) (*Writer, error) {
	if cfg.Path == "" || cfg.Clock == nil {
		return nil, errors.New("journal: Open needs a path and a clock")
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = DefaultFlushEvery
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", cfg.Path, err)
	}
	w := &Writer{
		f: f, path: cfg.Path, clock: cfg.Clock, frame: make([]byte, headerSize, 512),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go w.flusher(cfg.FlushEvery)
	return w, nil
}

// Path returns the journal file path.
func (w *Writer) Path() string { return w.path }

// SetCrashHook installs a fault-injection hook consulted on every append
// (before the write). Returning CrashLost or CrashTorn kills the writer
// at exactly that record; the OnCrash callback then fires once, outside
// the writer lock.
func (w *Writer) SetCrashHook(hook func(Record) CrashMode) {
	w.mu.Lock()
	w.crashHook = hook
	w.mu.Unlock()
}

// OnCrash registers a callback fired once when an injected crash triggers
// (simulating the rest of the process dying with the journal). It runs
// outside the writer lock but possibly under a caller's lock — it must
// not call back into the component whose append crashed.
func (w *Writer) OnCrash(fn func()) {
	w.mu.Lock()
	w.onCrash = fn
	w.mu.Unlock()
}

// bodyPool holds the buffers Append encodes hot bodies into before it takes
// the writer lock.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// Append journals one record with a single write(). After a crash
// (injected or Crash()), it drops the record and returns ErrCrashed; after
// a failed or short write() the file ends in a fragment no record may
// follow, so every later Append returns that first error.
func (w *Writer) Append(kind Kind, body any) error {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	raw, ok := appendBody((*buf)[:0], body)
	if ok {
		*buf = raw
	} else {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("journal: marshal %s body: %w", kind, err)
		}
	}

	w.mu.Lock()
	switch {
	case w.closed:
		w.mu.Unlock()
		return ErrClosed
	case w.crashed:
		w.mu.Unlock()
		return ErrCrashed
	case w.failed != nil:
		w.mu.Unlock()
		return w.failed
	}
	frame := jsonshape.AppendString(append(w.frame[:headerSize], `{"kind":`...), string(kind))
	frame = strconv.AppendUint(append(frame, `,"seq":`...), w.seq+1, 10)
	frame = append(append(append(frame, `,"body":`...), raw...), '}')
	w.frame = frame
	payload := frame[headerSize:]
	if len(payload) > MaxRecordSize {
		w.mu.Unlock()
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	mode := NoCrash
	if w.crashHook != nil {
		mode = w.crashHook(Record{Kind: kind, Seq: w.seq + 1, Body: append(json.RawMessage(nil), raw...)})
	}
	var fireCrash func()
	switch mode {
	case CrashLost:
		w.crashed = true
		fireCrash = w.onCrash
	case CrashTorn:
		// Die mid-write: the header plus part of the payload lands.
		_, _ = w.f.Write(frame[:headerSize+len(payload)/2])
		w.crashed = true
		fireCrash = w.onCrash
	default:
		if _, werr := w.f.Write(frame); werr != nil {
			w.failed = fmt.Errorf("journal: append: %w", werr)
			w.mu.Unlock()
			return w.failed
		}
		w.seq++
		w.dirty = true
		w.appends++
	}
	w.mu.Unlock()

	if fireCrash != nil {
		fireCrash()
	}
	if mode != NoCrash {
		return ErrCrashed
	}
	return nil
}

// flusher batches fsync on the session clock.
func (w *Writer) flusher(every time.Duration) {
	defer close(w.done)
	ticker := w.clock.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C():
			w.mu.Lock()
			if w.dirty && !w.closed && !w.crashed {
				_ = w.f.Sync()
				w.dirty = false
				w.syncs++
			}
			w.mu.Unlock()
		}
	}
}

// stopFlusher stops the flusher and waits for it to exit.
func (w *Writer) stopFlusher() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Close flushes, syncs and closes the journal (graceful shutdown).
func (w *Writer) Close() error {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.crashed {
		return nil
	}
	if w.dirty {
		_ = w.f.Sync()
		w.syncs++
		w.dirty = false
	}
	return w.f.Close()
}

// Crash simulates the owning process dying: the file descriptor closes
// without a final fsync and every subsequent Append is dropped with
// ErrCrashed. Records already written survive (a process crash does not
// roll back completed write()s).
func (w *Writer) Crash() {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.crashed {
		return
	}
	w.crashed = true
	_ = w.f.Close()
}

// Crashed reports whether the writer is dead from Crash or an injected
// fault.
func (w *Writer) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crashed
}

// Stats returns the append and fsync counts (for overhead accounting).
func (w *Writer) Stats() (appends, syncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

// --- Replay -----------------------------------------------------------------

// ReplayStats is the granular accounting of one replay.
type ReplayStats struct {
	// Records counts complete, checksum-valid records decoded.
	Records int
	// Applied counts records that changed the snapshot.
	Applied int
	// Skipped counts records tolerated but not applied (duplicates,
	// out-of-order transitions, references to unknown UIDs). SkipReasons
	// breaks the count down.
	Skipped int
	// Invalid counts records that fail structural validation (checksum,
	// framing, JSON). Any invalid record fails the replay: apply is
	// all-or-nothing.
	Invalid int
	// TornTail reports a truncated final record — the expected artifact
	// of a crash mid-append, tolerated and not counted as invalid.
	TornTail bool
	// ValidBytes is the byte offset of the end of the valid record
	// prefix; anything after it is the torn tail. A writer re-opening the
	// journal for appending MUST truncate to this offset first when
	// TornTail is set — appending after the torn fragment would make the
	// fragment's length prefix consume the new records as its payload on
	// the next replay, failing the whole journal with ErrChecksum.
	ValidBytes int64
	// SkipReasons counts skips by reason.
	SkipReasons map[string]int
}

func (st *ReplayStats) skip(reason string) {
	st.Skipped++
	if st.SkipReasons == nil {
		st.SkipReasons = make(map[string]int)
	}
	st.SkipReasons[reason]++
}

// PilotState is a pilot's replayed last known state.
type PilotState struct {
	Desc  spec.PilotDescription
	State states.State
}

// TaskState is a task's replayed last known state.
type TaskState struct {
	Desc  spec.TaskDescription
	State states.State
	// Pilot is the last journaled placement binding ("" if never bound).
	Pilot string
}

// ServiceState is a service's replayed last known state.
type ServiceState struct {
	Desc  spec.ServiceDescription
	State states.State
	Pilot string
	// Endpoint and Generation reflect the last journaled publication.
	Endpoint   proto.Endpoint
	Generation uint64
	// Suspended means the last endpoint op was a suspend (a failover was
	// in flight when the journal ended). Withdrawn tombstones the logical
	// service: it settled for good and recovery must not resurrect it.
	Suspended bool
	Withdrawn bool
}

// Snapshot is the world view a journal replays to: the session identity
// plus the last known state of every journaled entity, each list in
// first-appearance (submission) order.
type Snapshot struct {
	Session  SessionBody
	Pilots   []*PilotState
	Tasks    []*TaskState
	Services []*ServiceState
}

// Pilot returns the replayed pilot state for uid.
func (s *Snapshot) Pilot(uid string) *PilotState {
	for _, p := range s.Pilots {
		if p.Desc.UID == uid {
			return p
		}
	}
	return nil
}

// ReplayFile replays the journal at path. See Replay.
func ReplayFile(path string) (*Snapshot, *ReplayStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &ReplayStats{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	return Replay(data)
}

// Replay decodes and applies every record in data. Application is
// all-or-nothing with respect to structural validity: any checksum,
// framing or JSON failure before the final record returns an error and no
// snapshot (stats still report what was seen). Semantically impossible
// records — duplicate descriptions, out-of-order or illegal transitions,
// references to unknown UIDs — are skipped and accounted, mirroring a
// transactional importer: the journal is evidence, replay is the
// validator. A truncated final record is tolerated as the torn tail of a
// crash mid-append.
func Replay(data []byte) (*Snapshot, *ReplayStats, error) {
	stats := &ReplayStats{}
	snap := &Snapshot{}
	pilots := make(map[string]*PilotState)
	tasks := make(map[string]*TaskState)
	services := make(map[string]*ServiceState)

	off := 0
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err == io.EOF {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			stats.TornTail = true
			break
		}
		if err != nil {
			stats.Invalid++
			return nil, stats, fmt.Errorf("journal: record at offset %d: %w", off, err)
		}
		off += n
		stats.ValidBytes = int64(off)
		stats.Records++
		if err := apply(rec, snap, pilots, tasks, services, stats); err != nil {
			stats.Invalid++
			return nil, stats, fmt.Errorf("journal: record seq %d: %w", rec.Seq, err)
		}
	}
	return snap, stats, nil
}

// apply folds one record into the snapshot. It returns an error only for
// structurally invalid bodies (all-or-nothing); semantic rejections are
// skipped and counted.
func apply(rec Record, snap *Snapshot, pilots map[string]*PilotState,
	tasks map[string]*TaskState, services map[string]*ServiceState, stats *ReplayStats) error {
	switch rec.Kind {
	case KindSession:
		var b SessionBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		// One session record per incarnation; the latest wins, and the
		// incarnation only moves forward.
		if b.Incarnation < snap.Session.Incarnation {
			stats.skip("stale-session")
			return nil
		}
		snap.Session = b
		stats.Applied++

	case KindPilot:
		var b PilotBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		if _, dup := pilots[b.UID]; dup {
			stats.skip("duplicate-desc")
			return nil
		}
		ps := &PilotState{Desc: b.Desc, State: states.PilotModel().Initial()}
		pilots[b.UID] = ps
		snap.Pilots = append(snap.Pilots, ps)
		stats.Applied++

	case KindTask:
		var b TaskBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		if _, dup := tasks[b.UID]; dup {
			stats.skip("duplicate-desc")
			return nil
		}
		ts := &TaskState{Desc: b.Desc, State: states.TaskModel().Initial()}
		tasks[b.UID] = ts
		snap.Tasks = append(snap.Tasks, ts)
		stats.Applied++

	case KindService:
		var b ServiceBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		if _, dup := services[b.UID]; dup {
			stats.skip("duplicate-desc")
			return nil
		}
		ss := &ServiceState{Desc: b.Desc, State: states.ServiceModel().Initial()}
		services[b.UID] = ss
		snap.Services = append(snap.Services, ss)
		stats.Applied++

	case KindBind:
		b, err := decodeBind(rec.Body)
		if err != nil {
			return err
		}
		switch b.Entity {
		case "task":
			if ts := tasks[b.UID]; ts != nil {
				ts.Pilot = b.Pilot
				stats.Applied++
				return nil
			}
		case "service":
			if ss := services[b.UID]; ss != nil {
				ss.Pilot = b.Pilot
				stats.Applied++
				return nil
			}
		}
		stats.skip("bind-unknown-uid")

	case KindTransition:
		b, err := decodeTransition(rec.Body)
		if err != nil {
			return err
		}
		applyTransition(b, pilots, tasks, services, stats)

	case KindEndpoint:
		var b EndpointBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		ss := services[b.UID]
		if ss == nil {
			stats.skip("endpoint-unknown-uid")
			return nil
		}
		switch b.Op {
		case OpPublish:
			ss.Endpoint = b.Endpoint
			if b.Generation > ss.Generation {
				ss.Generation = b.Generation
			}
			ss.Suspended = false
			ss.Withdrawn = false
		case OpSuspend:
			ss.Suspended = true
		case OpWithdraw:
			ss.Withdrawn = true
			ss.Suspended = false
		default:
			stats.skip("endpoint-unknown-op")
			return nil
		}
		stats.Applied++

	default:
		stats.skip("unknown-kind")
	}
	return nil
}

// applyTransition validates one journaled transition against the entity's
// state model and current replayed state. Valid edges apply; duplicates
// and out-of-order records skip with accounting. A transition from the
// model's initial state while the replayed state is final is a machine
// restart — a re-placement re-bootstrapping the same UID on a new host —
// and re-enters the model from the top.
func applyTransition(b TransitionBody, pilots map[string]*PilotState,
	tasks map[string]*TaskState, services map[string]*ServiceState, stats *ReplayStats) {
	model := states.ModelFor(states.Entity(b.Entity))
	if model == nil {
		stats.skip("transition-unknown-entity")
		return
	}
	var cur *states.State
	switch states.Entity(b.Entity) {
	case states.EntityPilot:
		if ps := pilots[b.UID]; ps != nil {
			cur = &ps.State
		}
	case states.EntityTask:
		if ts := tasks[b.UID]; ts != nil {
			cur = &ts.State
		}
	case states.EntityService:
		if ss := services[b.UID]; ss != nil {
			cur = &ss.State
		}
	}
	if cur == nil {
		stats.skip("transition-unknown-uid")
		return
	}
	from, to := states.State(b.From), states.State(b.To)
	switch {
	case from == *cur && model.CanTransition(from, to):
		*cur = to
		stats.Applied++
	case from == model.Initial() && model.IsFinal(*cur) && model.CanTransition(from, to):
		// Machine restart under the same UID (re-placement bootstrap).
		*cur = to
		stats.Applied++
	case to == *cur:
		stats.skip("duplicate-transition")
	case from != *cur:
		stats.skip("out-of-order-transition")
	default:
		stats.skip("illegal-transition")
	}
}

// MaxSeqSuffix scans uids for manager-generated identifiers of the form
// prefix+"%0Nd" and returns the highest numeric suffix (0 when none
// match). Recovery seeds manager sequence counters with it so new UIDs
// never collide with journaled ones.
func MaxSeqSuffix(uids []string, prefix string) int {
	max := 0
	for _, uid := range uids {
		if len(uid) <= len(prefix) || uid[:len(prefix)] != prefix {
			continue
		}
		n := 0
		ok := true
		for _, c := range uid[len(prefix):] {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			n = n*10 + int(c-'0')
		}
		if ok && n > max {
			max = n
		}
	}
	return max
}

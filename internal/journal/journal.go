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
// synchronously (so a process crash loses at most what was being written:
// one record, or the records one goroutine wrote back to back — the
// transitions of one To call through AppendTransitions, a task's description,
// bind and first transitions through AppendDispatch — as one Append of as
// many records), while fsync is batched on the session clock — the usual WAL
// group-commit trade: per-record write() cost without per-record fsync cost.
// The fsync runs on the flusher's goroutine with the writer unlocked: it
// decides and counts under the lock, then syncs while appends go on, and what
// they write is the next tick's to sync. Close and Crash stop the flusher
// before they touch the file, so no sync meets a closed descriptor; a
// crash-hook verdict closes the file under the lock and only tells the flusher
// to stop, and a sync already on its way gets os.ErrClosed, which it drops
// like any other.
// The simulation only models process crashes (completed write()s survive in
// the OS page cache), so the fsync cadence is fidelity and accounting, not
// correctness.
//
// Codec: the payload bytes are encoding/json's. The writer hand-encodes the
// envelope and the three bodies a task writes (description, bind,
// transition) to exactly the bytes json.Marshal produces, and still issues
// one write() per Append, AppendTransitions or AppendDispatch, never holding
// a record back for the next call. replay
// reads a record of exactly that byte shape once, envelope and body in one
// scan, and keeps no copy of it: a transition
// or a bind is applied from spans of the read buffer. On any deviation the
// fast path declines rather than guesses and hands the envelope, the body or
// both to encoding/json, so what is accepted, rejected or skipped, and why,
// is unchanged; ReplayStats counts the records each path took. The
// encoding/json envelope encoder lives on in the tests as the differential
// oracle.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonshape"
	"repro/internal/proto"
	"repro/internal/rng"
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
	// ErrTooLarge marks a length prefix beyond maxRecordSize — framing
	// corruption replay cannot resynchronize from.
	ErrTooLarge = errors.New("journal: record exceeds maximum size")
)

// maxRecordSize bounds one record's payload. Descriptions and transitions
// are tiny; a larger length prefix means the framing itself is corrupt.
const maxRecordSize = 1 << 20

// defaultFlushEvery is the default fsync batching interval on the session
// clock.
const defaultFlushEvery = 100 * time.Millisecond

// headerSize is the per-record framing overhead (length + CRC).
const headerSize = 8

// frameOpen starts a frame: the header, filled in once the payload is known,
// and the payload up to the kind.
const frameOpen = "\x00\x00\x00\x00\x00\x00\x00\x00" + `{"kind":`

// Kind discriminates record bodies.
type Kind string

// Record kinds.
const (
	// KindSession opens a journal (and re-opens it per recovery
	// incarnation): session identity, seed and configuration.
	KindSession Kind = "session"
	// KindPilot, kindTask and KindService record a description the moment
	// the session accepts it — the WAL intent preceding the action.
	KindPilot   Kind = "pilot"
	kindTask    Kind = "task"
	KindService Kind = "service"
	// KindBind records a placement decision: which pilot a task or
	// service was dispatched to.
	KindBind Kind = "bind"
	// KindTransition records one committed entity state transition.
	KindTransition Kind = "transition"
	// KindEndpoint records a session EndpointRegistry mutation.
	KindEndpoint Kind = "endpoint"
)

// kinds lists the record kinds in the order ReplayStats counts them.
var kinds = [...]Kind{KindSession, KindPilot, kindTask, KindService, KindBind, KindTransition, KindEndpoint}

const nKinds = len(kinds) + 1 // and a slot for every kind this package does not write

func kindIndex(k Kind) int {
	if i := slices.Index(kinds[:], k); i >= 0 {
		return i
	}
	return len(kinds)
}

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

// TaskBody is the kindTask payload. Function payloads (TaskDescription.
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
	opWithdraw = "withdraw"
)

// EndpointBody is the KindEndpoint payload.
type EndpointBody struct {
	Op         string         `json:"op"`
	UID        string         `json:"uid"`
	Endpoint   proto.Endpoint `json:"endpoint,omitempty"`
	Generation uint64         `json:"generation,omitempty"`
}

// appendBody appends the encoding/json bytes of a transition, bind or task
// body (all 8 records a task writes). ok is false for every other body, for
// a task with staging directives or metadata, and for what json.Marshal
// refuses or Time.MarshalJSON does (a year beyond 9999, a zone hour beyond
// 23, an infinite MemGB): json.Marshal then encodes the one or reports the
// other.
func appendBody(b []byte, body any) (_ []byte, ok bool) {
	switch v := body.(type) {
	case TransitionBody:
		return appendTransition(b, &v)
	case BindBody:
		return appendBind(b, &v), true
	case TaskBody:
		return appendTask(b, &v)
	}
	return b, false
}

func appendTransition(b []byte, v *TransitionBody) (_ []byte, ok bool) {
	b = jsonshape.AppendString(append(b, `{"entity":`...), v.Entity)
	b = jsonshape.AppendString(append(b, `,"uid":`...), v.UID)
	b = jsonshape.AppendString(append(b, `,"from":`...), v.From)
	b = jsonshape.AppendString(append(b, `,"to":`...), v.To)
	b, ok = jsonshape.AppendTime(append(b, `,"at":`...), v.At)
	return append(b, '}'), ok
}

func appendBind(b []byte, v *BindBody) []byte {
	b = jsonshape.AppendString(append(b, `{"entity":`...), v.Entity)
	b = jsonshape.AppendString(append(b, `,"uid":`...), v.UID)
	b = jsonshape.AppendString(append(b, `,"pilot":`...), v.Pilot)
	return append(b, '}')
}

func appendTask(b []byte, v *TaskBody) (_ []byte, ok bool) {
	d := &v.Desc
	if d.InputStaging != nil || d.OutputStaging != nil || d.Metadata != nil {
		return b, false
	}
	b = jsonshape.AppendString(append(b, `{"uid":`...), v.UID)
	b = jsonshape.AppendString(append(b, `,"desc":{"UID":`...), d.UID)
	b = jsonshape.AppendString(append(b, `,"Name":`...), d.Name)
	b = strconv.AppendInt(append(b, `,"Cores":`...), int64(d.Cores), 10)
	b = strconv.AppendInt(append(b, `,"GPUs":`...), int64(d.GPUs), 10)
	b, ok = jsonshape.AppendFloat(append(b, `,"MemGB":`...), d.MemGB)
	b = append(b, `,"Duration":`...)
	if d.Duration.D == nil {
		b = append(b, `null`...)
	} else {
		// The distribution's own encoding, which json.Marshal would only
		// compact and escape, and which is already both.
		dist, err := d.Duration.MarshalJSON()
		b, ok = append(b, dist...), ok && err == nil
	}
	b = strconv.AppendInt(append(b, `,"Priority":`...), int64(d.Priority), 10)
	b = jsonshape.AppendString(append(b, `,"Pilot":`...), d.Pilot)
	return append(b, `,"InputStaging":null,"OutputStaging":null,"Metadata":null}}`...), ok
}

// The keys of the two hot bodies, each followed by a string.
var (
	transitionKeys = []string{`{"entity":`, `,"uid":`, `,"from":`, `,"to":`}
	bindKeys       = []string{`{"entity":`, `,"uid":`, `,"pilot":`}
)

// scanBody matches a body of plain strings under exactly the writer's keys
// and returns the strings' spans. With at, a timestamp follows them: it goes
// through the decoder encoding/json would call and is dropped, because
// replay orders by the journal.
func scanBody(body []byte, keys []string, at bool) (v [4]jsonshape.Span, ok bool) {
	c := jsonshape.Cursor{P: body}
	for i, k := range keys {
		c.Lit(k)
		v[i] = c.Str()
	}
	if at {
		c.Lit(`,"at":`)
		c.Time()
	}
	c.Lit(`}`)
	return v, c.End()
}

// scanTask decodes a task body of exactly the shape appendBody writes into
// *b, which it touches only if it takes the body: keys in order, plain
// strings, integers as strconv writes them, staging and metadata null. Like
// json.Unmarshal it leaves Func alone. A Name or Pilot equal to the one *b
// holds keeps that string: tasks of one campaign repeat both.
func scanTask(body []byte, b *TaskBody) bool {
	c := jsonshape.Cursor{P: body}
	c.Lit(`{"uid":`)
	uid := c.Str()
	c.Lit(`,"desc":{"UID":`)
	descUID := c.Str()
	c.Lit(`,"Name":`)
	name := c.Str()
	c.Lit(`,"Cores":`)
	cores := c.Int()
	c.Lit(`,"GPUs":`)
	gpus := c.Int()
	c.Lit(`,"MemGB":`)
	mem := c.Float()
	c.Lit(`,"Duration":`)
	var dur rng.DurationDist
	if !c.Has(`null`) {
		// Whatever stands before the next key is the distribution's to take
		// whole: its decoder is encoding/json's and refuses all but one value.
		if dist := c.Until(`,"Priority":`); !c.OK() || dur.UnmarshalJSON(dist.Of(body)) != nil {
			return false
		}
	}
	c.Lit(`,"Priority":`)
	priority := c.Int()
	c.Lit(`,"Pilot":`)
	pilot := c.Str()
	c.Lit(`,"InputStaging":null,"OutputStaging":null,"Metadata":null}}`)
	if !c.End() {
		return false
	}
	d := &b.Desc
	b.UID = string(uid.Of(body))
	if d.UID = b.UID; string(descUID.Of(body)) != b.UID { // the managers write one UID twice: one string
		d.UID = string(descUID.Of(body))
	}
	if string(name.Of(body)) != d.Name {
		d.Name = string(name.Of(body))
	}
	if string(pilot.Of(body)) != d.Pilot {
		d.Pilot = string(pilot.Of(body))
	}
	d.Cores, d.GPUs, d.MemGB, d.Duration, d.Priority = cores, gpus, mem, dur, priority
	d.InputStaging, d.OutputStaging, d.Metadata = nil, nil, nil
	return true
}

// unmarshalBody is the encoding/json path of a body. b is its own variable
// because &b escapes: a fast path sharing it would allocate it per record.
func unmarshalBody[T any](body []byte) (b T, err error) {
	err = json.Unmarshal(body, &b)
	return b, err
}

// decoded is one record as replay consumes it. fast says the body, like the
// envelope, had the writer's shape and was read by decodeFast: v then holds
// the spans of a transition's or a bind's strings in Body, task a task's
// body. Otherwise the body is valid JSON and encoding/json's to decode.
type decoded struct {
	Record
	fast bool
	v    [4]jsonshape.Span
	task TaskBody
}

// strings returns the strings of a transition body (entity, UID, from, to)
// or of a bind body (entity, UID, pilot). They alias Body on the fast path.
func (d *decoded) strings() (b [4][]byte, err error) {
	switch {
	case d.fast:
		for i, v := range d.v {
			b[i] = v.Of(d.Body)
		}
	case d.Kind == KindBind:
		var t BindBody
		t, err = unmarshalBody[BindBody](d.Body)
		b = [4][]byte{[]byte(t.Entity), []byte(t.UID), []byte(t.Pilot)}
	default:
		var t TransitionBody
		t, err = unmarshalBody[TransitionBody](d.Body)
		b = [4][]byte{[]byte(t.Entity), []byte(t.UID), []byte(t.From), []byte(t.To)}
	}
	return b, err
}

// decodeFast decodes a payload of exactly the writer's shape:
// {"kind":"<plain>","seq":<canonical uint64>,"body":<object>} with no
// whitespace and nothing after. Body aliases payload.
func decodeFast(payload []byte, d *decoded) (ok bool) {
	d.fast = false
	c := jsonshape.Cursor{P: payload}
	c.Lit(`{"kind":`)
	k := c.Str()
	c.Lit(`,"seq":`)
	seq := c.Uint()
	c.Lit(`,"body":`)
	if !c.OK() || len(payload)-c.Pos() < 3 {
		return false
	}
	body := payload[c.Pos() : len(payload)-1]
	if body[0] != '{' || body[len(body)-1] != '}' || payload[len(payload)-1] != '}' {
		return false
	}
	d.Record = Record{Seq: seq, Body: body}
	switch kind := payload[k.Lo:k.Hi]; string(kind) {
	case string(KindTransition):
		d.Kind = KindTransition // the constant: no string per hot record
		d.v, d.fast = scanBody(body, transitionKeys, true)
	case string(KindBind):
		d.Kind = KindBind
		d.v, d.fast = scanBody(body, bindKeys, false)
	case string(kindTask):
		d.Kind = kindTask
		d.fast = scanTask(body, &d.task)
	default:
		d.Kind = Kind(kind)
	}
	return d.fast || json.Valid(body)
}

// decodeRecord decodes one framed record from the front of data into the
// form replay consumes and returns the number of bytes it took. A short
// buffer (header or payload cut off) returns io.ErrUnexpectedEOF — the
// torn-tail signal; an empty buffer returns io.EOF. The record's Body, and on
// the fast path its spans, alias data.
func decodeRecord(data []byte, d *decoded) (int, error) {
	if len(data) == 0 {
		return 0, io.EOF
	}
	if len(data) < headerSize {
		return 0, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	if n > maxRecordSize {
		return 0, ErrTooLarge
	}
	if len(data) < headerSize+n {
		return 0, io.ErrUnexpectedEOF
	}
	payload := data[headerSize : headerSize+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:8]) {
		return 0, ErrChecksum
	}
	if !decodeFast(payload, d) {
		var err error
		if d.Record, err = unmarshalBody[Record](payload); err != nil {
			return 0, fmt.Errorf("journal: decode record: %w", err)
		}
	}
	return headerSize + n, nil
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
	// framed record lands in the file and the writer is dead. replay
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
	// defaultFlushEvery).
	FlushEvery time.Duration
}

// Writer appends records to a journal file. Appends are synchronous
// write()s under a mutex; fsync runs on the session clock's cadence, on the
// flusher's goroutine and outside that mutex.
type Writer struct {
	f     *os.File
	path  string
	clock simtime.Clock

	mu        sync.Mutex
	seq       uint64
	frames    []byte // the records being written: header, then payload, each
	failed    error  // first write() error; sticky, the WAL ends in its fragment
	closed    bool
	crashed   bool
	dirty     bool
	appends   int64
	syncs     int64
	crashHook func(Record) CrashMode
	onCrash   func()
	fsync     func() error              // f.Sync; the tests' seam
	fwrite    func([]byte) (int, error) // f.Write; likewise

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
		cfg.FlushEvery = defaultFlushEvery
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", cfg.Path, err)
	}
	w := &Writer{
		f: f, fsync: f.Sync, fwrite: f.Write, path: cfg.Path, clock: cfg.Clock, frames: make([]byte, 0, 1024),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	// Armed here, not on the flusher's goroutine: on a virtual clock the
	// ticker's deadline and place in the event order are fixed at Open.
	go w.flusher(w.clock.NewTicker(cfg.FlushEvery))
	return w, nil
}

// SetCrashHook installs a fault-injection hook consulted on every append
// (before the write). Returning CrashLost or CrashTorn kills the writer
// at exactly that record, descriptor and flusher included, as Crash does;
// the OnCrash callback then fires once, outside the writer lock.
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

// bodyBuf is what an Append encodes hot bodies into before it takes the
// writer lock: the bodies end to end, and where each one ends.
type bodyBuf struct {
	raw  []byte
	ends []int
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// Append journals one record with a single write(). After a crash
// (injected or Crash()), it drops the record and returns ErrCrashed; after
// a failed or short write() the file ends in a fragment no record may
// follow, so every later Append returns that first error. The records a task
// writes have typed doors beside it (AppendTask, AppendBind,
// AppendTransitions, and AppendDispatch for all three at once): the same
// record by the same path, without the body boxed into an interface first.
func (w *Writer) Append(kind Kind, body any) error {
	buf := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(buf)
	raw, ok := appendBody(buf.raw[:0], body)
	if !ok {
		return w.appendJSON(kind, body)
	}
	buf.raw = raw
	return w.write([]Kind{kind}, raw, nil)
}

// AppendTask is Append(kindTask, b).
func (w *Writer) AppendTask(b TaskBody) error {
	buf := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(buf)
	raw, ok := appendTask(buf.raw[:0], &b)
	if !ok {
		return w.appendJSON(kindTask, b)
	}
	buf.raw = raw
	return w.write([]Kind{kindTask}, raw, nil)
}

// AppendBind is Append(KindBind, b).
func (w *Writer) AppendBind(b BindBody) error {
	buf := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(buf)
	buf.raw = appendBind(buf.raw[:0], &b)
	return w.write([]Kind{KindBind}, buf.raw, nil)
}

// taskKinds are the kinds of the records a task's dispatch journals, in file
// order. write gives every record past the last of its kinds that last kind,
// so they frame a chain of any length behind the bind.
var taskKinds = []Kind{kindTask, KindBind, KindTransition}

// envelopeMax is more than the envelope adds to a body: a body this far under
// maxRecordSize makes a record write accepts.
const envelopeMax = 64

// appendChain appends the bodies of the transitions an entity made from from,
// and to ends where each one ends. ok is false at the first timestamp that is
// encoding/json's to encode or refuse.
func appendChain(raw []byte, ends []int, entity, uid string, from states.State, steps []states.Record) (_ []byte, _ []int, ok bool) {
	for _, s := range steps {
		raw, ok = appendTransition(raw, &TransitionBody{Entity: entity, UID: uid, From: string(from), To: string(s.State), At: s.At})
		if !ok {
			return raw, ends, false
		}
		ends = append(ends, len(raw))
		from = s.State
	}
	return raw, ends, true
}

// AppendTransitions journals the transitions an entity made back to back, as
// a states.BatchCallback receives them: one KindTransition record a step, the
// records and the bytes Append would write one by one, framed under one hold
// of the writer lock and written with one write(). It returns once that
// write() has. Nothing is held back to make the chain: an injected crash at
// its k-th record leaves the k-1 before it whole in the file.
func (w *Writer) AppendTransitions(entity, uid string, from states.State, steps []states.Record) error {
	if len(steps) == 0 {
		return nil
	}
	buf := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(buf)
	raw, ends, ok := appendChain(buf.raw[:0], buf.ends[:0], entity, uid, from, steps)
	if !ok {
		return w.appendTransitionsJSON(entity, uid, from, steps)
	}
	buf.raw, buf.ends = raw, ends
	return w.write([]Kind{KindTransition}, raw, ends)
}

// AppendDispatch journals what a task's dispatch writes back to back: the
// description (task nil when it is already in the journal), the bind, and the
// transitions the task then made from from. They are the records and the bytes
// AppendTask, AppendBind and AppendTransitions would write in that order, with
// the same crash verdicts, framed under one hold of the writer lock and written
// with one write(); nothing is held back to make it. A description the
// hand-written codec declines, or one that may exceed maxRecordSize, sends all
// three through their own doors, so that what refuses the description does not
// refuse the bind and the transitions.
func (w *Writer) AppendDispatch(task *TaskBody, bind BindBody, from states.State, steps []states.Record) error {
	buf := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(buf)
	raw, ends, kinds, ok := buf.raw[:0], buf.ends[:0], taskKinds[1:], true
	if task != nil {
		raw, ok = appendTask(raw, task)
		ends, kinds = append(ends, len(raw)), taskKinds
		ok = ok && len(raw) <= maxRecordSize-envelopeMax
	}
	if ok {
		raw = appendBind(raw, &bind)
		raw, ends, ok = appendChain(raw, append(ends, len(raw)), bind.Entity, bind.UID, from, steps)
	}
	if !ok {
		var err error
		if task != nil {
			err = w.AppendTask(*task)
		}
		return errors.Join(err, w.AppendBind(bind), w.AppendTransitions(bind.Entity, bind.UID, from, steps))
	}
	buf.raw, buf.ends = raw, ends
	return w.write(kinds, raw, ends)
}

// appendTransitionsJSON is AppendTransitions for a chain with a timestamp
// that is encoding/json's to encode or refuse: a record at a time.
func (w *Writer) appendTransitionsJSON(entity, uid string, from states.State, steps []states.Record) error {
	for _, s := range steps {
		err := w.Append(KindTransition, TransitionBody{Entity: entity, UID: uid, From: string(from), To: string(s.State), At: s.At})
		if err != nil {
			return err
		}
		from = s.State
	}
	return nil
}

// appendJSON journals a body the hand-written codec has no shape for, or
// declined.
func (w *Writer) appendJSON(kind Kind, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("journal: marshal %s body: %w", kind, err)
	}
	return w.write([]Kind{kind}, raw, nil)
}

// write frames the bodies in raw, which end at ends (raw is one body when
// there are none), as the next records and writes them with one write(). The
// n-th is of the n-th kind, or of the last when kinds are fewer. The crash hook
// is asked about each record in file order, before any byte of it is written: a
// verdict on one writes the whole records before it, half of it if torn, and
// nothing after, then closes the file as Crash does. A record beyond
// maxRecordSize refuses them all.
func (w *Writer) write(kinds []Kind, raw []byte, ends []int) error {
	if len(ends) == 0 {
		ends = []int{len(raw)}
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
	frames, mode := w.frames[:0], NoCrash
	n, lo := 0, 0 // records framed whole, and where the next body starts
	for n < len(ends) && mode == NoCrash {
		kind, body, at := kinds[min(n, len(kinds)-1)], raw[lo:ends[n]], len(frames)
		frames = jsonshape.AppendString(append(frames, frameOpen...), string(kind))
		frames = strconv.AppendUint(append(frames, `,"seq":`...), w.seq+uint64(n)+1, 10)
		frames = append(append(append(frames, `,"body":`...), body...), '}')
		payload := frames[at+headerSize:]
		if len(payload) > maxRecordSize {
			w.mu.Unlock()
			return ErrTooLarge
		}
		binary.BigEndian.PutUint32(frames[at:], uint32(len(payload)))
		binary.BigEndian.PutUint32(frames[at+4:], crc32.ChecksumIEEE(payload))
		if w.crashHook != nil {
			mode = w.crashHook(Record{Kind: kind, Seq: w.seq + uint64(n) + 1, Body: append(json.RawMessage(nil), body...)})
		}
		switch mode {
		case NoCrash:
			n, lo = n+1, ends[n]
		case CrashLost:
			frames = frames[:at]
		case CrashTorn:
			// Die mid-write: the header plus part of the payload lands.
			frames = frames[:at+headerSize+len(payload)/2]
		}
	}
	w.frames = frames
	if len(frames) > 0 {
		if _, werr := w.fwrite(frames); werr != nil && mode == NoCrash {
			w.failed = fmt.Errorf("journal: append: %w", werr)
			w.mu.Unlock()
			return w.failed
		}
	}
	if n > 0 {
		w.seq += uint64(n)
		w.appends += int64(n)
		w.dirty = true
	}
	var fireCrash func()
	if mode != NoCrash {
		// The process is dead: what Crash does, except wait for the flusher,
		// which may be waiting for this lock.
		w.crashed = true
		_ = w.f.Close()
		w.stopOnce.Do(func() { close(w.stop) })
		fireCrash = w.onCrash
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
func (w *Writer) flusher(ticker simtime.Ticker) {
	defer close(w.done)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C():
			// Decided under the lock, synced outside it: an fsync takes as long
			// as some three hundred appends, none of which needs to wait for it.
			// A record written meanwhile sets dirty again for the next tick.
			var fsync func() error
			w.mu.Lock()
			if w.dirty && !w.closed && !w.crashed {
				fsync, w.dirty = w.fsync, false
				w.syncs++
			}
			w.mu.Unlock()
			if fsync != nil {
				_ = fsync()
			}
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
		_ = w.fsync()
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

// --- replay -----------------------------------------------------------------

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
	// FastDecodes and JSONDecodes count the records by kind and by what
	// decoded them: the hand-written codec alone, or encoding/json for the
	// envelope, the body or both, a slot a kind: session, pilot, task,
	// service, bind, transition, endpoint, any other. Session, pilot, service
	// and endpoint bodies are always encoding/json's; a task, bind or
	// transition under JSONDecodes is one this package did not write. Like
	// SkipReasons they are for a caller to read (core.RecoveryReport carries
	// them in Stats); nothing here prints them, and they stay out of the JSON
	// form so that the replay goldens stand.
	FastDecodes [nKinds]int `json:"-"`
	JSONDecodes [nKinds]int `json:"-"`
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

// replayBuffer is how much of a journal ReplayFile holds at a time; a record
// that is longer grows it.
const replayBuffer = 64 << 10

// ReplayFile replays the journal at path. See replay.
func ReplayFile(path string) (*Snapshot, *ReplayStats, error) {
	r := newReplayer()
	f, err := os.Open(path)
	if err != nil {
		return nil, r.stats, fmt.Errorf("journal: read %s: %w", path, err)
	}
	defer f.Close()
	buf := make([]byte, 0, replayBuffer)
	for last := false; !last; {
		if len(buf) == cap(buf) { // all of it one cut-off record
			buf = append(buf, make([]byte, len(buf))...)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		if buf, last = buf[:len(buf)+n], err == io.EOF; err != nil && !last {
			return nil, r.stats, fmt.Errorf("journal: read %s: %w", path, err)
		}
		used, err := r.feed(buf, last)
		if err != nil {
			return nil, r.stats, err
		}
		buf = buf[:copy(buf, buf[used:])]
	}
	return r.snap, r.stats, nil
}

// replay decodes and applies every record in data. Application is
// all-or-nothing with respect to structural validity: any checksum,
// framing or JSON failure before the final record returns an error and no
// snapshot (stats still report what was seen). Semantically impossible
// records — duplicate descriptions, out-of-order or illegal transitions,
// references to unknown UIDs — are skipped and accounted, mirroring a
// transactional importer: the journal is evidence, replay is the
// validator. A truncated final record is tolerated as the torn tail of a
// crash mid-append.
func replay(data []byte) (*Snapshot, *ReplayStats, error) {
	r := newReplayer()
	if _, err := r.feed(data, true); err != nil {
		return nil, r.stats, err
	}
	return r.snap, r.stats, nil
}

// replayer is a replay in progress: the snapshot so far, the entities by
// UID, and the record in hand. lastTask, the task described last, is in
// tasks under lastUID for good (a TaskState is never replaced): the records
// after a description find it without a lookup. TaskStates come from slab.
type replayer struct {
	snap     *Snapshot
	stats    *ReplayStats
	pilots   map[string]*PilotState
	tasks    map[string]*TaskState
	services map[string]*ServiceState
	rec      decoded
	lastUID  string
	lastTask *TaskState
	slab     []TaskState
}

func newReplayer() *replayer {
	return &replayer{
		snap: &Snapshot{}, stats: &ReplayStats{},
		pilots: make(map[string]*PilotState), tasks: make(map[string]*TaskState), services: make(map[string]*ServiceState),
	}
}

// feed applies the complete records at the front of data, the next stretch
// of the journal, and returns how many bytes they took. A record cut off by
// the end of data is the torn tail if data is the journal's last stretch,
// and otherwise left for the caller to complete.
func (r *replayer) feed(data []byte, last bool) (int, error) {
	off := 0
	for off < len(data) {
		n, err := decodeRecord(data[off:], &r.rec)
		if errors.Is(err, io.ErrUnexpectedEOF) {
			r.stats.TornTail = last
			break
		}
		if err != nil {
			r.stats.Invalid++
			return off, fmt.Errorf("journal: record at offset %d: %w", r.stats.ValidBytes, err)
		}
		off += n
		r.stats.ValidBytes += int64(n)
		r.stats.Records++
		if err := r.apply(); err != nil {
			r.stats.Invalid++
			return off, fmt.Errorf("journal: record seq %d: %w", r.rec.Seq, err)
		}
		if r.rec.fast {
			r.stats.FastDecodes[kindIndex(r.rec.Kind)]++
		} else {
			r.stats.JSONDecodes[kindIndex(r.rec.Kind)]++
		}
	}
	return off, nil
}

// apply folds the record in hand into the snapshot. It returns an error only
// for structurally invalid bodies (all-or-nothing); semantic rejections are
// skipped and counted.
func (r *replayer) apply() error {
	rec, snap, stats := &r.rec, r.snap, r.stats
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
		if _, dup := r.pilots[b.UID]; dup {
			stats.skip("duplicate-desc")
			return nil
		}
		ps := &PilotState{Desc: b.Desc, State: states.PilotModel().Initial()}
		r.pilots[b.UID] = ps
		snap.Pilots = append(snap.Pilots, ps)
		stats.Applied++

	case kindTask:
		b := &rec.task
		if !rec.fast {
			*b = TaskBody{}
			if err := json.Unmarshal(rec.Body, b); err != nil {
				return err
			}
		}
		if _, dup := r.tasks[b.UID]; dup {
			stats.skip("duplicate-desc")
			return nil
		}
		if len(r.slab) == 0 {
			r.slab = make([]TaskState, 128)
		}
		ts := &r.slab[0]
		r.slab = r.slab[1:]
		*ts = TaskState{Desc: b.Desc, State: states.TaskModel().Initial()}
		r.tasks[b.UID] = ts
		r.lastUID, r.lastTask = b.UID, ts
		snap.Tasks = append(snap.Tasks, ts)
		stats.Applied++

	case KindService:
		var b ServiceBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		if _, dup := r.services[b.UID]; dup {
			stats.skip("duplicate-desc")
			return nil
		}
		ss := &ServiceState{Desc: b.Desc, State: states.ServiceModel().Initial()}
		r.services[b.UID] = ss
		snap.Services = append(snap.Services, ss)
		stats.Applied++

	case KindBind:
		b, err := rec.strings()
		if err != nil {
			return err
		}
		switch string(b[0]) {
		case "task":
			if ts := r.task(b[1]); ts != nil {
				ts.Pilot = r.pilotUID(b[2])
				stats.Applied++
				return nil
			}
		case "service":
			if ss := r.services[string(b[1])]; ss != nil {
				ss.Pilot = r.pilotUID(b[2])
				stats.Applied++
				return nil
			}
		}
		stats.skip("bind-unknown-uid")

	case KindTransition:
		b, err := rec.strings()
		if err != nil {
			return err
		}
		r.applyTransition(b[0], b[1], b[2], b[3])

	case KindEndpoint:
		var b EndpointBody
		if err := json.Unmarshal(rec.Body, &b); err != nil {
			return err
		}
		ss := r.services[b.UID]
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
		case opWithdraw:
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

// modelStates maps the name of every state of the three models to the
// model's own constant: a replayed state costs a lookup, not a string.
var modelStates = func() map[string]states.State {
	m := make(map[string]states.State)
	for _, model := range []*states.Model{states.PilotModel(), states.TaskModel(), states.ServiceModel()} {
		for _, s := range model.States() {
			m[string(s)] = s
		}
	}
	return m
}()

// task returns the replayed task under uid, nil if none.
func (r *replayer) task(uid []byte) *TaskState {
	if string(uid) == r.lastUID { // nil before the first task: none to find
		return r.lastTask
	}
	return r.tasks[string(uid)]
}

// pilotUID returns name as a string: the UID of a journaled pilot if it is
// one, so that the binds to one pilot share its string. Pilots are few.
func (r *replayer) pilotUID(name []byte) string {
	for _, ps := range r.snap.Pilots {
		if ps.Desc.UID == string(name) {
			return ps.Desc.UID
		}
	}
	return string(name)
}

func stateOf(name []byte) states.State {
	if s, ok := modelStates[string(name)]; ok {
		return s
	}
	return states.State(name)
}

// applyTransition validates one journaled transition against the entity's
// state model and current replayed state. Valid edges apply; duplicates
// and out-of-order records skip with accounting. A transition from the
// model's initial state while the replayed state is final is a machine
// restart — a re-placement re-bootstrapping the same UID on a new host —
// and re-enters the model from the top.
func (r *replayer) applyTransition(entity, uid, fromName, toName []byte) {
	var model *states.Model
	var cur *states.State
	switch states.Entity(entity) {
	case states.EntityPilot:
		model = states.PilotModel()
		if ps := r.pilots[string(uid)]; ps != nil {
			cur = &ps.State
		}
	case states.EntityTask:
		model = states.TaskModel()
		if ts := r.task(uid); ts != nil {
			cur = &ts.State
		}
	case states.EntityService:
		model = states.ServiceModel()
		if ss := r.services[string(uid)]; ss != nil {
			cur = &ss.State
		}
	default:
		r.stats.skip("transition-unknown-entity")
		return
	}
	if cur == nil {
		r.stats.skip("transition-unknown-uid")
		return
	}
	from, to := *cur, stateOf(toName)
	if string(fromName) != string(from) {
		from = stateOf(fromName)
	}
	switch {
	case from == *cur && model.CanTransition(from, to):
		*cur = to
		r.stats.Applied++
	case from == model.Initial() && model.IsFinal(*cur) && model.CanTransition(from, to):
		// Machine restart under the same UID (re-placement bootstrap).
		*cur = to
		r.stats.Applied++
	case to == *cur:
		r.stats.skip("duplicate-transition")
	case from != *cur:
		r.stats.skip("out-of-order-transition")
	default:
		r.stats.skip("illegal-transition")
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

// Package profile is the RADICAL-Analytics analogue: it records the
// timestamped state transitions of every runtime entity (pilots, tasks,
// services) into a session profile, computes durations between state
// pairs across entity populations, and exports CSV for offline analysis.
// The paper's BT/RT/IT figures are produced from exactly this kind of
// profile data.
package profile

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/states"
)

// Event is one recorded transition.
type Event struct {
	UID    string
	Entity string
	From   states.State
	To     states.State
	At     time.Time
}

// chunkEvents is how many events a full-size chunk of a Recorder holds.
const chunkEvents = 16 << 6

// Recorder accumulates events. It is safe for concurrent use. Events are
// kept in chunks, filled in order: a recorder that grows never copies what
// it already holds. The first chunks are small (16 events, then doubling up
// to chunkEvents), so a session that records a handful of transitions does
// not pay for 90 kB.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event
	n      int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Callback returns a states.Callback recording transitions for one entity
// kind; install it as (or chain it into) a runtime StateCallback.
func (r *Recorder) Callback(entity string) states.Callback {
	return func(uid string, from, to states.State, at time.Time) {
		r.Record(Event{UID: uid, Entity: entity, From: from, To: to, At: at})
	}
}

// Record appends one event directly.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k := len(r.chunks); k == 0 || len(r.chunks[k-1]) == cap(r.chunks[k-1]) {
		// 16, 32, … chunkEvents, then chunkEvents for good: the shift count is
		// clamped, k itself grows with the recorder.
		r.chunks = append(r.chunks, make([]Event, 0, 16<<min(k, 6)))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, e)
	r.n++
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Events returns a copy of the recorded events in insertion order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// Entities returns the distinct UIDs recorded for an entity kind (all
// kinds when entity is empty), sorted.
func (r *Recorder) Entities(entity string) []string {
	seen := map[string]bool{}
	for _, e := range r.Events() {
		if entity == "" || e.Entity == entity {
			seen[e.UID] = true
		}
	}
	out := make([]string, 0, len(seen))
	for uid := range seen {
		out = append(out, uid)
	}
	sort.Strings(out)
	return out
}

// EnteredAt returns the first time uid entered state s.
func (r *Recorder) EnteredAt(uid string, s states.State) (time.Time, bool) {
	for _, e := range r.Events() {
		if e.UID == uid && e.To == s {
			return e.At, true
		}
	}
	return time.Time{}, false
}

// Durations returns, for every entity of the given kind that passed
// through both states, the duration between first entering a and first
// entering b.
func (r *Recorder) Durations(entity string, a, b states.State) []time.Duration {
	type marks struct {
		ta, tb time.Time
		hasA   bool
		hasB   bool
	}
	byUID := map[string]*marks{}
	for _, e := range r.Events() {
		if entity != "" && e.Entity != entity {
			continue
		}
		m := byUID[e.UID]
		if m == nil {
			m = &marks{}
			byUID[e.UID] = m
		}
		if e.To == a && !m.hasA {
			m.ta, m.hasA = e.At, true
		}
		if e.To == b && !m.hasB {
			m.tb, m.hasB = e.At, true
		}
	}
	uids := make([]string, 0, len(byUID))
	for uid := range byUID {
		uids = append(uids, uid)
	}
	sort.Strings(uids)
	var out []time.Duration
	for _, uid := range uids {
		m := byUID[uid]
		if m.hasA && m.hasB {
			out = append(out, m.tb.Sub(m.ta))
		}
	}
	return out
}

// Stats aggregates Durations into summary statistics.
func (r *Recorder) Stats(entity string, a, b states.State) metrics.Stats {
	return metrics.Compute(r.Durations(entity, a, b))
}

// ConcurrencyAt returns how many entities of the kind were between states
// a (entered) and b (not yet entered) at time t — the utilization series
// behind scaling plots.
func (r *Recorder) ConcurrencyAt(entity string, a, b states.State, t time.Time) int {
	n := 0
	for _, uid := range r.Entities(entity) {
		ta, okA := r.EnteredAt(uid, a)
		if !okA || ta.After(t) {
			continue
		}
		tb, okB := r.EnteredAt(uid, b)
		if okB && !tb.After(t) {
			continue
		}
		n++
	}
	return n
}

// WriteCSV exports the profile as "uid,entity,from,to,unix_ns".
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"uid", "entity", "from", "to", "unix_ns"}); err != nil {
		return fmt.Errorf("profile: write header: %w", err)
	}
	for _, e := range r.Events() {
		rec := []string{e.UID, e.Entity, string(e.From), string(e.To), strconv.FormatInt(e.At.UnixNano(), 10)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("profile: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a profile previously written by WriteCSV.
func ReadCSV(rd io.Reader) (*Recorder, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("profile: read: %w", err)
	}
	if len(rows) == 0 {
		return NewRecorder(), nil
	}
	rec := NewRecorder()
	for i, row := range rows[1:] { // skip header
		if len(row) != 5 {
			return nil, fmt.Errorf("profile: row %d has %d fields", i+2, len(row))
		}
		ns, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("profile: row %d timestamp: %w", i+2, err)
		}
		rec.Record(Event{
			UID:    row[0],
			Entity: row[1],
			From:   states.State(row[2]),
			To:     states.State(row[3]),
			At:     time.Unix(0, ns).UTC(),
		})
	}
	return rec, nil
}

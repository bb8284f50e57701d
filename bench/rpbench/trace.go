package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the tracer was created. Spans of one op share
// a root: a child's Parent is the ID of the span that caused it.
type Span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// tracing off: every method is a no-op, so the untraced run pays one nil
// check per call site.
type Tracer struct {
	workload string
	origin   time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []Span
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, origin: time.Now()}
}

// Start opens a span under parent (0 for a root) and returns its ID and a
// function that closes it.
func (t *Tracer) Start(name string, parent uint64) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans = append(t.spans, Span{
			Name: name, Workload: t.workload, ID: id, Parent: parent,
			StartNs: int64(start), EndNs: int64(end),
		})
		t.mu.Unlock()
	}
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, parent uint64, fn func()) {
	_, end := t.Start(name, parent)
	fn()
	end()
}

// spanBuf is a per-goroutine span buffer for the tcp_* clients, which
// record several spans per request and must not contend on the tracer's
// lock for each. IDs are taken from the tracer a block at a time.
type spanBuf struct {
	t            *Tracer
	nextID, last uint64 // next ID to hand out, last ID of the block held
	spans        []Span
}

// spanIDBlock is how many span IDs a buffer reserves at once.
const spanIDBlock = 4096

// Buffer returns a span buffer for one goroutine with room for n spans.
func (t *Tracer) Buffer(n int) *spanBuf {
	if t == nil {
		return nil
	}
	return &spanBuf{t: t, nextID: 1, spans: make([]Span, 0, n)}
}

// Add records a finished span, given as offsets from the tracer's origin,
// and returns its ID.
func (b *spanBuf) Add(name string, parent uint64, start, end time.Duration) uint64 {
	if b.nextID > b.last {
		b.t.mu.Lock()
		b.nextID = b.t.nextID + 1
		b.t.nextID += spanIDBlock
		b.last = b.t.nextID
		b.t.mu.Unlock()
	}
	id := b.nextID
	b.nextID++
	b.spans = append(b.spans, Span{
		Name: name, Workload: b.t.workload, ID: id, Parent: parent,
		StartNs: int64(start), EndNs: int64(end),
	})
	return id
}

// Flush hands the buffered spans to the tracer.
func (b *spanBuf) Flush() {
	if b == nil {
		return
	}
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// Since returns the offset of now from the tracer's origin.
func (t *Tracer) Since() time.Duration { return time.Since(t.origin) }

// SpanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part its children cover.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// Summary returns per-name totals, sorted by name.
func (t *Tracer) Summary() []SpanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := make(map[string]*SpanSummary)
	for _, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &SpanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndNs - s.StartNs
		sum.Count++
		sum.TotalMs += float64(d) / 1e6
		sum.SelfMs += float64(d-childNs[s.ID]) / 1e6
	}
	out := make([]SpanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what -spans writes: every span plus the counts taken at the
// same boundaries.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Counts   map[string]float64 `json:"counts"`
	Summary  []SpanSummary      `json:"summary"`
	Spans    []Span             `json:"spans"`
}

// WriteFile writes the spans and counts as one JSON document.
func (t *Tracer) WriteFile(path string, seed uint64, counts map[string]float64) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{
		Workload: t.workload, Seed: seed, Counts: counts, Summary: t.Summary(), Spans: spans,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

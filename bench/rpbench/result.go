package main

import (
	"fmt"
	"sort"
	"strings"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what one workload run is given. The program under test sees
// only inputs generated from Seed.
type runConfig struct {
	Seed    uint64
	Seconds float64 // length of the measured phase
	Trace   bool    // traced run: spans on, probes after, per-layer metrics out
	Smoke   bool    // 1/100 size, checks on, timings meaningless
	Spans   string  // file the traced run writes its spans to ("" = keep in memory only)
	TmpDir  string  // scratch directory for WAL files
}

// reps is how many times a set-up is repeated to time it: once for -smoke.
func (c runConfig) reps(n int) int {
	if c.Smoke {
		return 1
	}
	return n
}

// scaled shrinks a fixed work size for -smoke.
func (c runConfig) scaled(n int) int {
	if c.Smoke {
		n /= 100
		if n < 1 {
			n = 1
		}
	}
	return n
}

// Result is the outcome of one workload run.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	// Violations lists every correctness check that missed.
	Violations []string `json:"violations,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Notes carries values that are reported but neither gated nor part
	// of the contract (round counts, sim makespan, the span summary).
	Notes map[string]any `json:"notes,omitempty"`
}

func newResult(w string, cfg runConfig) *Result {
	return &Result{
		Workload: w, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
		Metrics: make(map[string]Metric), Notes: make(map[string]any),
	}
}

// violate records a missed correctness check.
func (r *Result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// put stores a metric under the unit its definition fixes.
func (r *Result) put(name string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

// finish fills in every metric of the run's kind the workload did not
// report (a layer off the workload's path reads 0) and settles Correct.
func (r *Result) finish() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = Metric{Value: 0, Unit: d.Unit}
		}
	}
	r.Correct = len(r.Violations) == 0
}

// render prints the result for a human: one metric per line, by name with
// its unit.
func (r *Result) render() string {
	var sb strings.Builder
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(&sb, "== %s  seed=%d  %s\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(&sb, "   attempted=%d completed=%d failed=%d correct=%v\n",
		r.Attempted, r.Completed, r.Failed, r.Correct)
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "   VIOLATION: %s\n", v)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&sb, "   %-40s %16.4f %s\n", n, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for n := range r.Notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(&sb, "   note %-35s %v\n", n, r.Notes[n])
	}
	return sb.String()
}

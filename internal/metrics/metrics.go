// Package metrics collects and aggregates the timing measurements of the
// paper's performance characterization: Bootstrap Time (BT), Response Time
// (RT) and Inference Time (IT), each decomposed into components (launch /
// init / publish for BT; communication / service / inference for RT and
// IT). It provides distribution statistics (mean, std, percentiles) so the
// experiment harness can report averages and observe outliers and long
// tails, as §IV requires.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stats summarizes a duration sample.
type Stats struct {
	N    int
	Mean time.Duration
	Std  time.Duration
	Min  time.Duration
	Max  time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
}

// Compute returns the summary statistics of values. A nil or empty input
// yields a zero Stats.
func Compute(values []time.Duration) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	sorted := make([]time.Duration, len(values))
	copy(sorted, values)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum, sumsq float64
	for _, v := range sorted {
		f := float64(v)
		sum += f
		sumsq += f * f
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0 // numerical noise
	}
	return Stats{
		N:    len(sorted),
		Mean: time.Duration(mean),
		Std:  time.Duration(math.Sqrt(variance)),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  percentile(sorted, 0.50),
		P95:  percentile(sorted, 0.95),
		P99:  percentile(sorted, 0.99),
	}
}

// percentile uses the nearest-rank method on a sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders the stats compactly in seconds.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.3fs std=%.3fs p50=%.3fs p95=%.3fs max=%.3fs",
		s.N, s.Mean.Seconds(), s.Std.Seconds(), s.P50.Seconds(), s.P95.Seconds(), s.Max.Seconds())
}

// Collector accumulates named duration series. It is safe for concurrent
// use.
//
// Locking is per-series: the collector-level RWMutex only guards the name
// map (read-locked on the hot path, write-locked to create a series), and
// each series carries its own mutex around the sample append. Writers to
// different series therefore never contend, which matters when a load
// harness feeds millions of samples from many goroutines — under a
// single global mutex the collector itself was the bottleneck (PERF.md,
// PR 7).
type Collector struct {
	mu     sync.RWMutex
	series map[string]*sampleSeries
}

type sampleSeries struct {
	mu   sync.Mutex
	vals []time.Duration
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{series: make(map[string]*sampleSeries)}
}

// get returns the named series, creating it on first use.
func (c *Collector) get(name string) *sampleSeries {
	c.mu.RLock()
	s := c.series[name]
	c.mu.RUnlock()
	if s != nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s = c.series[name]; s == nil {
		s = &sampleSeries{vals: make([]time.Duration, 0, 64)}
		c.series[name] = s
	}
	return s
}

// Add appends v to the named series.
func (c *Collector) Add(name string, v time.Duration) {
	s := c.get(name)
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

// AddAll appends every component of a breakdown, prefixing each component
// name with prefix and a dot.
func (c *Collector) AddAll(prefix string, components map[string]time.Duration) {
	for k, v := range components {
		c.Add(prefix+"."+k, v)
	}
}

// Series returns a copy of the named series (nil when absent).
func (c *Collector) Series(name string) []time.Duration {
	c.mu.RLock()
	s := c.series[name]
	c.mu.RUnlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		return nil
	}
	return append([]time.Duration{}, s.vals...)
}

// Stats computes summary statistics for the named series.
func (c *Collector) Stats(name string) Stats { return Compute(c.Series(name)) }

// Count returns the number of samples in the named series.
func (c *Collector) Count(name string) int {
	c.mu.RLock()
	s := c.series[name]
	c.mu.RUnlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Names returns the sorted series names.
func (c *Collector) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.series))
	for n := range c.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds other's series into c.
func (c *Collector) Merge(other *Collector) {
	for _, name := range other.Names() {
		vals := other.Series(name)
		s := c.get(name)
		s.mu.Lock()
		s.vals = append(s.vals, vals...)
		s.mu.Unlock()
	}
}

// Reset clears all series.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.series = make(map[string]*sampleSeries)
	c.mu.Unlock()
}

// --- breakdown records -----------------------------------------------------

// BTComponents are the bootstrap-time components of Exp 1 (Fig. 3).
var BTComponents = []string{"launch", "init", "publish"}

// RTComponents are the response-time components of Exp 2/3 (Figs. 4-6).
var RTComponents = []string{"communication", "service", "inference"}

// Breakdown is one measurement decomposed into named components.
type Breakdown struct {
	Components map[string]time.Duration
}

// Total sums all components.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, v := range b.Components {
		t += v
	}
	return t
}

// --- table rendering --------------------------------------------------------

// Table is a plain-text aligned table, used by the experiment harness to
// print the paper's tables and the data series behind its figures.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned textual form.
func (t Table) Render() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				for p := len(cell); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		sb.WriteString(strings.Repeat("-", total-2))
		sb.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// WriteCSV exports every series as "series,sample_idx,seconds" rows for
// offline analysis/plotting.
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "series,sample_idx,seconds\n"); err != nil {
		return err
	}
	for _, name := range c.Names() {
		for i, v := range c.Series(name) {
			if _, err := fmt.Fprintf(w, "%s,%d,%.9f\n", name, i, v.Seconds()); err != nil {
				return err
			}
		}
	}
	return nil
}

// FmtSeconds renders d as a fixed-point seconds string.
func FmtSeconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// FmtMeanStd renders "mean ± std" in seconds for a stats record.
func FmtMeanStd(s Stats) string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean.Seconds(), s.Std.Seconds())
}

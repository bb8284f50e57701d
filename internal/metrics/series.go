package metrics

import "time"

// IntervalSeries buckets arrivals and completions into fixed-width time
// intervals, with a latency Sketch per interval. Only bench/rpbench's sink
// probes call it, to price its two recording calls.
//
// Timestamps are bucketed relative to the origin passed to
// NewIntervalSeries; events before the origin land in interval 0. An
// IntervalSeries is not safe for concurrent use.
type IntervalSeries struct {
	origin time.Time
	width  time.Duration
	alpha  float64
	rows   []*intervalAcc
}

type intervalAcc struct {
	offered   int64
	completed int64
	sketch    *Sketch
}

// NewIntervalSeries returns a series bucketing events into width-sized
// intervals starting at origin. Latency percentiles per interval use a
// Sketch with relative-error bound alpha (≤ 0 selects DefaultSketchAlpha).
func NewIntervalSeries(origin time.Time, width time.Duration, alpha float64) *IntervalSeries {
	if width <= 0 {
		panic("metrics: interval width must be positive")
	}
	return &IntervalSeries{origin: origin, width: width, alpha: alpha}
}

func (is *IntervalSeries) at(t time.Time) *intervalAcc {
	idx := 0
	if d := t.Sub(is.origin); d > 0 {
		idx = int(d / is.width)
	}
	for len(is.rows) <= idx {
		is.rows = append(is.rows, &intervalAcc{sketch: NewSketch(is.alpha)})
	}
	return is.rows[idx]
}

// Offered records one arrival at time t.
func (is *IntervalSeries) Offered(t time.Time) { is.at(t).offered++ }

// Completed records one successful completion at time t with latency d.
func (is *IntervalSeries) Completed(t time.Time, d time.Duration) {
	acc := is.at(t)
	acc.completed++
	acc.sketch.Observe(d)
}

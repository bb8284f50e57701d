package metrics

import "time"

// IntervalSeries aggregates a load campaign into fixed-width time buckets:
// offered/completed/failed counts, peak queue depth, and a latency Sketch
// per interval. It is the streaming replacement for collecting every
// sample and sorting at the end — memory grows with campaign *duration*
// (one row per interval), never with request count.
//
// Timestamps are bucketed relative to the origin passed to
// NewIntervalSeries; events before the origin land in interval 0. An
// IntervalSeries is not safe for concurrent use — campaign drivers on the
// virtual clock are cooperatively serialized, and concurrent collectors
// each own a series.
type IntervalSeries struct {
	origin time.Time
	width  time.Duration
	alpha  float64
	rows   []*intervalAcc
}

type intervalAcc struct {
	offered   int64
	completed int64
	failed    int64
	queuePeak int64
	sketch    *Sketch
}

// IntervalRow is one finished interval of an IntervalSeries.
type IntervalRow struct {
	Index         int
	Start         time.Duration // offset from the series origin
	Offered       int64
	Completed     int64
	Failed        int64
	QueuePeak     int64
	OfferedRate   float64 // per second
	CompletedRate float64 // per second
	P50           time.Duration
	P99           time.Duration
	Max           time.Duration
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

// Failed records one failed request at time t.
func (is *IntervalSeries) Failed(t time.Time) { is.at(t).failed++ }

// ObserveQueue records an instantaneous queue depth at time t; the row
// keeps the peak.
func (is *IntervalSeries) ObserveQueue(t time.Time, depth int64) {
	acc := is.at(t)
	if depth > acc.queuePeak {
		acc.queuePeak = depth
	}
}

// Rows materializes the series, one row per interval from the origin to
// the last interval that saw an event.
func (is *IntervalSeries) Rows() []IntervalRow {
	secs := is.width.Seconds()
	rows := make([]IntervalRow, len(is.rows))
	for i, acc := range is.rows {
		rows[i] = IntervalRow{
			Index:         i,
			Start:         time.Duration(i) * is.width,
			Offered:       acc.offered,
			Completed:     acc.completed,
			Failed:        acc.failed,
			QueuePeak:     acc.queuePeak,
			OfferedRate:   float64(acc.offered) / secs,
			CompletedRate: float64(acc.completed) / secs,
			P50:           acc.sketch.Quantile(0.50),
			P99:           acc.sketch.Quantile(0.99),
			Max:           acc.sketch.Max(),
		}
	}
	return rows
}

// Totals sums counts across all intervals.
func (is *IntervalSeries) Totals() (offered, completed, failed int64) {
	for _, acc := range is.rows {
		offered += acc.offered
		completed += acc.completed
		failed += acc.failed
	}
	return
}

// Sketch merges every interval's latency sketch into one campaign-wide
// sketch and returns it.
func (is *IntervalSeries) Sketch() *Sketch {
	all := NewSketch(is.alpha)
	for _, acc := range is.rows {
		all.Merge(acc.sketch) //nolint:errcheck // same alpha by construction
	}
	return all
}

package metrics

import (
	"testing"
	"time"
)

var seriesOrigin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// goldenSeries builds a small deterministic series: three intervals, the
// middle one empty.
func goldenSeries() *IntervalSeries {
	is := NewIntervalSeries(seriesOrigin, 10*time.Second, DefaultSketchAlpha)
	at := func(d time.Duration) time.Time { return seriesOrigin.Add(d) }

	// interval 0: three offered, two completed
	is.Offered(at(1 * time.Second))
	is.Offered(at(2 * time.Second))
	is.Offered(at(3 * time.Second))
	is.Completed(at(2*time.Second), 5*time.Millisecond)
	is.Completed(at(4*time.Second), 7*time.Millisecond)

	// interval 1: empty (pinned as an all-zero row)

	// interval 2: one offered/completed with a 2s latency
	is.Offered(at(25 * time.Second))
	is.Completed(at(27*time.Second), 2*time.Second)
	return is
}

func TestIntervalSeriesCounts(t *testing.T) {
	is := goldenSeries()
	if len(is.rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(is.rows))
	}
	for i, want := range []struct{ offered, completed int64 }{{3, 2}, {0, 0}, {1, 1}} {
		if r := is.rows[i]; r.offered != want.offered || r.completed != want.completed {
			t.Errorf("row %d = %d/%d offered/completed, want %d/%d",
				i, r.offered, r.completed, want.offered, want.completed)
		}
	}
}

// TestIntervalSeriesCampaignSketch checks that each completion's latency
// lands in the sketch of the interval it completed in, so the interval
// sketches together hold the campaign's completions.
func TestIntervalSeriesCampaignSketch(t *testing.T) {
	is := goldenSeries()
	for i, want := range []struct{ min, max time.Duration }{
		{5 * time.Millisecond, 7 * time.Millisecond},
		{0, 0},
		{2 * time.Second, 2 * time.Second},
	} {
		sk := is.rows[i].sketch
		if sk.Quantile(0) != want.min || sk.Max() != want.max {
			t.Errorf("row %d sketch min/max = %v/%v, want %v/%v",
				i, sk.Quantile(0), sk.Max(), want.min, want.max)
		}
	}
}

func TestIntervalSeriesBeforeOrigin(t *testing.T) {
	is := NewIntervalSeries(seriesOrigin, time.Second, DefaultSketchAlpha)
	is.Offered(seriesOrigin.Add(-time.Hour))
	is.Completed(seriesOrigin.Add(-time.Minute), time.Millisecond)
	if len(is.rows) != 1 || is.rows[0].offered != 1 || is.rows[0].completed != 1 {
		t.Fatalf("events before the origin must land in interval 0: %d rows", len(is.rows))
	}
}

func TestNewIntervalSeriesRejectsZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a zero interval width must panic")
		}
	}()
	NewIntervalSeries(seriesOrigin, 0, DefaultSketchAlpha)
}

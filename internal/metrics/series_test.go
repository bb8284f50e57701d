package metrics

import (
	"testing"
	"time"
)

// goldenSeries builds a small deterministic series exercising every column:
// multiple intervals, an empty middle interval, failures, and queue peaks.
func goldenSeries() *IntervalSeries {
	origin := time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)
	is := NewIntervalSeries(origin, 10*time.Second, DefaultSketchAlpha)
	at := func(d time.Duration) time.Time { return origin.Add(d) }

	// interval 0: three offered, two completed, one failed
	is.Offered(at(1 * time.Second))
	is.Offered(at(2 * time.Second))
	is.Offered(at(3 * time.Second))
	is.Completed(at(2*time.Second), 5*time.Millisecond)
	is.Completed(at(4*time.Second), 7*time.Millisecond)
	is.Failed(at(9 * time.Second))
	is.ObserveQueue(at(3*time.Second), 4)
	is.ObserveQueue(at(5*time.Second), 2)

	// interval 1: empty (pinned as an all-zero row)

	// interval 2: one offered/completed with a 2s latency
	is.Offered(at(25 * time.Second))
	is.Completed(at(27*time.Second), 2*time.Second)
	is.ObserveQueue(at(26*time.Second), 1)
	return is
}

func TestIntervalSeriesCounts(t *testing.T) {
	is := goldenSeries()
	offered, completed, failed := is.Totals()
	if offered != 4 || completed != 3 || failed != 1 {
		t.Fatalf("Totals = %d/%d/%d, want 4/3/1", offered, completed, failed)
	}
	rows := is.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Offered != 3 || rows[0].Completed != 2 || rows[0].Failed != 1 || rows[0].QueuePeak != 4 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[1].Offered != 0 || rows[1].Completed != 0 || rows[1].QueuePeak != 0 {
		t.Fatalf("row 1 must be empty: %+v", rows[1])
	}
	if rows[2].Start != 20*time.Second {
		t.Fatalf("row 2 start = %v", rows[2].Start)
	}
	// rates: 3 offered over a 10s interval
	if rows[0].OfferedRate != 0.3 || rows[0].CompletedRate != 0.2 {
		t.Fatalf("row 0 rates = %v/%v", rows[0].OfferedRate, rows[0].CompletedRate)
	}
}

func TestIntervalSeriesCampaignSketch(t *testing.T) {
	is := goldenSeries()
	sk := is.Sketch()
	if sk.Count() != 3 {
		t.Fatalf("campaign sketch Count = %d, want 3 completions", sk.Count())
	}
	if sk.Min() != 5*time.Millisecond || sk.Max() != 2*time.Second {
		t.Fatalf("campaign sketch min/max = %v/%v", sk.Min(), sk.Max())
	}
}

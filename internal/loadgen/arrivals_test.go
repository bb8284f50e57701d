package loadgen

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// collect drains an Arrivals into its gap sequence.
func collect(a Arrivals) []time.Duration {
	var gaps []time.Duration
	for {
		g, ok := a.Next()
		if !ok {
			return gaps
		}
		gaps = append(gaps, g)
	}
}

func TestPoissonArrivalsCountAndMean(t *testing.T) {
	const n = 20000
	const rate = 1000.0
	gaps := collect(PoissonArrivals(rng.New(11).Derive("arrivals"), rate, n))
	if len(gaps) != n {
		t.Fatalf("got %d arrivals, want exactly %d", len(gaps), n)
	}
	var sum time.Duration
	for _, g := range gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum / n
	want := time.Duration(float64(time.Second) / rate)
	// 20000 exponential samples: the sample mean is within a few percent
	// of 1/rate with overwhelming probability, and the seed is fixed.
	if mean < want*9/10 || mean > want*11/10 {
		t.Errorf("mean gap %v not within 10%% of %v", mean, want)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := collect(PoissonArrivals(rng.New(3).Derive("arrivals"), 500, 1000))
	b := collect(PoissonArrivals(rng.New(3).Derive("arrivals"), 500, 1000))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDiurnalArrivalsCountAndPositivity(t *testing.T) {
	const n = 10000
	gaps := collect(newDiurnalArrivals(rng.New(5).Derive("arrivals"), 1000, 0.8, 20*time.Second, n))
	if len(gaps) != n {
		t.Fatalf("got %d arrivals, want exactly %d", len(gaps), n)
	}
	for i, g := range gaps {
		if g <= 0 {
			t.Fatalf("gap %d is %v; thinning must always advance time", i, g)
		}
	}
}

func TestDiurnalArrivalsDeterministic(t *testing.T) {
	a := collect(newDiurnalArrivals(rng.New(5).Derive("arrivals"), 1000, 0.5, 10*time.Second, 2000))
	b := collect(newDiurnalArrivals(rng.New(5).Derive("arrivals"), 1000, 0.5, 10*time.Second, 2000))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDiurnalArrivalsRejectsBadWave(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, amp float64
		period    time.Duration
	}{
		{"zero-base", 0, 0.5, time.Second},
		{"amp-one", 100, 1.0, time.Second},
		{"negative-amp", 100, -0.1, time.Second},
		{"zero-period", 100, 0.5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("newDiurnalArrivals(%v, %v, %v) did not panic", tc.base, tc.amp, tc.period)
				}
			}()
			newDiurnalArrivals(rng.New(1), tc.base, tc.amp, tc.period, 1)
		})
	}
}

func TestTraceArrivalsReplayVerbatim(t *testing.T) {
	in := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 0, time.Second}
	got := collect(newTraceArrivals(in))
	if len(got) != len(in) {
		t.Fatalf("got %d gaps, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("gap %d: got %v, want %v", i, got[i], in[i])
		}
	}
}

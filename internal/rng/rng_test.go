package rng

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across seeds", same)
	}
}

func TestDeriveIsDeterministicAndKeyed(t *testing.T) {
	root := New(7)
	a := root.Derive("service.0000")
	b := root.Derive("service.0000")
	c := root.Derive("service.0001")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same derive key produced different streams")
	}
	a2, c2 := a.Uint64(), c.Uint64()
	if a2 == c2 {
		t.Fatal("distinct derive keys produced identical streams")
	}
}

// TestSkipMatchesDraws: Skip(n) leaves a stream where n Intn(20) calls
// leave its twin, with a pending Normal spare kept, and New or Draw of what
// it returns replays the skipped draws; n <= 0 skips nothing.
func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 8, 128} {
		for _, spare := range []bool{false, true} {
			a, b := New(99), New(99)
			if spare {
				a.Normal(0, 1)
				b.Normal(0, 1)
			}
			from := a.Skip(n)
			replay := New(from)
			for i := 0; i < n; i++ {
				want := b.Intn(20)
				if got := replay.Intn(20); got != want {
					t.Fatalf("n=%d spare=%v: replayed draw %d is %d, the twin's %d", n, spare, i, got, want)
				}
				if got := int(Draw(from, i) % 20); got != want {
					t.Fatalf("n=%d spare=%v: Draw %d picks %d, the twin's draw %d", n, spare, i, got, want)
				}
			}
			if x, y := a.Normal(0, 1), b.Normal(0, 1); x != y {
				t.Fatalf("n=%d spare=%v: Normal %v after Skip, %v after the draws", n, spare, x, y)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("n=%d spare=%v: Uint64 %#x after Skip, %#x after the draws", n, spare, x, y)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(6)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Fatalf("normal std = %v, want ~2", std)
	}
}

// TestNormalStreamPinned: the first variates of seeded streams, as the
// Box-Muller pairs and their spares came out when each variate still took
// the lock up to four times.
func TestNormalStreamPinned(t *testing.T) {
	s := New(7)
	for i, want := range []float64{
		1.3649922974572284, 0.14452122126941497, -0.396523975253818,
		-0.22759631143286663, 0.004498526159832092, 1.2594330585885882,
	} {
		if got := s.Normal(0, 1); got != want {
			t.Fatalf("New(7) variate %d = %v, want %v", i, got, want)
		}
	}
	d := New(7).Derive("normal")
	for i, want := range []float64{8.874249158042517, 12.578204053253693, 9.143422828839997} {
		if got := d.Normal(10, 2); got != want {
			t.Fatalf("derived variate %d = %v, want %v", i, got, want)
		}
	}
}

// TestNormalConcurrentDrawsShareTheStream: goroutines drawing from one
// Source get exactly the serial stream's variates between them, each once.
// Two callers that both found no spare and both stored one would lose a
// variate and draw a pair the serial stream does not have.
func TestNormalConcurrentDrawsShareTheStream(t *testing.T) {
	const workers, draws = 8, 20000
	shared := New(21)
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				got[w] = append(got[w], shared.Normal(0, 1))
			}
		}()
	}
	wg.Wait()
	all := slices.Concat(got...)
	serial := New(21)
	want := make([]float64, len(all))
	for i := range want {
		want[i] = serial.Normal(0, 1)
	}
	slices.Sort(all)
	slices.Sort(want)
	if !slices.Equal(all, want) {
		t.Fatal("concurrent draws are not the serial stream's variates")
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(8)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exponential(3)
		if v < 0 {
			t.Fatalf("Exponential < 0: %v", v)
		}
		sum += v
	}
	if m := sum / n; math.Abs(m-3) > 0.15 {
		t.Fatalf("exponential mean = %v, want ~3", m)
	}
}

func TestDistMeans(t *testing.T) {
	cases := []struct {
		d    Dist
		want float64
	}{
		{constant{V: 5}, 5},
		{Uniform{Lo: 2, Hi: 4}, 3},
		{normal{Mu: 7, Sigma: 1, Min: math.Inf(-1)}, 7},
	}
	for _, c := range cases {
		if got := c.d.Mean(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%T.Mean() = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestTruncNormalRespectsBound(t *testing.T) {
	s := New(11)
	d := truncNormal(0.5, 2, 0) // heavy truncation
	for i := 0; i < 5000; i++ {
		if v := d.Sample(s); v < 0 {
			t.Fatalf("truncated sample %v < 0", v)
		}
	}
}

func TestConstSampleIgnoresSource(t *testing.T) {
	d := constant{V: 1.5}
	if v := d.Sample(nil); v != 1.5 {
		t.Fatalf("constant.Sample = %v", v)
	}
}

func TestDurationDist(t *testing.T) {
	s := New(12)
	dd := ConstDuration(1500 * time.Millisecond)
	if got := dd.Sample(s); got != 1500*time.Millisecond {
		t.Fatalf("ConstDuration sample = %v", got)
	}
	if got := dd.Mean(); got != 1500*time.Millisecond {
		t.Fatalf("ConstDuration mean = %v", got)
	}
	if dd.IsZero() {
		t.Fatal("set DurationDist reported IsZero")
	}
	var zero DurationDist
	if !zero.IsZero() || zero.Sample(s) != 0 || zero.Mean() != 0 {
		t.Fatal("zero DurationDist misbehaved")
	}
}

func TestNormalDurationNonNegative(t *testing.T) {
	s := New(13)
	dd := NormalDuration(time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 2000; i++ {
		if got := dd.Sample(s); got < 0 {
			t.Fatalf("NormalDuration sample %v < 0", got)
		}
	}
}

func TestDurationDistNegativeMeanClamped(t *testing.T) {
	dd := Seconds(constant{V: -3})
	if got := dd.Mean(); got != 0 {
		t.Fatalf("negative-mean dist Mean() = %v, want 0", got)
	}
	if got := dd.Sample(New(1)); got != 0 {
		t.Fatalf("negative dist Sample() = %v, want 0", got)
	}
}

func TestUniformProperty(t *testing.T) {
	// Property: Uniform(lo,hi) samples always land in [lo, hi) for lo < hi.
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		u := Uniform{Lo: lo, Hi: hi}
		s := New(uint64(a)<<16 | uint64(b))
		for i := 0; i < 50; i++ {
			v := u.Sample(s)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	s := New(99)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				s.Uint64()
				s.Normal(0, 1)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

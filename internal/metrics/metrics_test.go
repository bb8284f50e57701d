package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestComputeBasic(t *testing.T) {
	s := Compute([]time.Duration{ms(10), ms(20), ms(30), ms(40)})
	if s.N != 4 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != ms(25) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Min != ms(10) || s.Max != ms(40) {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != ms(20) {
		t.Fatalf("P50 = %v (nearest rank)", s.P50)
	}
}

func TestComputeEmpty(t *testing.T) {
	s := Compute(nil)
	if s.N != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty Compute = %+v", s)
	}
}

func TestComputeSingle(t *testing.T) {
	s := Compute([]time.Duration{ms(7)})
	if s.Mean != ms(7) || s.Std != 0 || s.P50 != ms(7) || s.P99 != ms(7) {
		t.Fatalf("single Compute = %+v", s)
	}
}

func TestComputeDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{ms(3), ms(1), ms(2)}
	Compute(in)
	if in[0] != ms(3) || in[1] != ms(1) || in[2] != ms(2) {
		t.Fatal("Compute sorted the caller's slice")
	}
}

func TestComputeStd(t *testing.T) {
	// values 10,10,20,20 → mean 15, std 5
	s := Compute([]time.Duration{ms(10), ms(10), ms(20), ms(20)})
	if s.Std < ms(5)-time.Microsecond || s.Std > ms(5)+time.Microsecond {
		t.Fatalf("Std = %v, want 5ms", s.Std)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]time.Duration, 100)
	for i := range vals {
		vals[i] = ms(i + 1) // 1..100 ms
	}
	s := Compute(vals)
	if s.P50 != ms(50) || s.P95 != ms(95) || s.P99 != ms(99) {
		t.Fatalf("percentiles = %v/%v/%v", s.P50, s.P95, s.P99)
	}
}

func TestStatsInvariantProperty(t *testing.T) {
	// Property: Min <= P50 <= P95 <= P99 <= Max and Min <= Mean <= Max.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]time.Duration, len(raw))
		for i, r := range raw {
			vals[i] = time.Duration(r) * time.Microsecond
		}
		s := Compute(vals)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorAddAndStats(t *testing.T) {
	c := NewCollector()
	c.Add("bt.launch", ms(100))
	c.Add("bt.launch", ms(200))
	if got := c.Count("bt.launch"); got != 2 {
		t.Fatalf("Count = %d", got)
	}
	if s := c.Stats("bt.launch"); s.Mean != ms(150) {
		t.Fatalf("Stats.Mean = %v", s.Mean)
	}
	if got := c.Series("missing"); got != nil {
		t.Fatal("missing series returned non-nil")
	}
}

func TestCollectorSeriesIsCopy(t *testing.T) {
	c := NewCollector()
	c.Add("x", ms(1))
	s := c.Series("x")
	s[0] = ms(999)
	if c.Series("x")[0] != ms(1) {
		t.Fatal("Series returned shared backing array")
	}
}

func TestCollectorAddAll(t *testing.T) {
	c := NewCollector()
	c.AddAll("rt", map[string]time.Duration{
		"communication": ms(1), "service": ms(2), "inference": ms(3),
	})
	for _, comp := range []string{"communication", "service", "inference"} {
		if c.Count("rt."+comp) != 1 {
			t.Fatalf("component %s not recorded", comp)
		}
	}
}

func TestCollectorNamesSorted(t *testing.T) {
	c := NewCollector()
	c.Add("z", ms(1))
	c.Add("a", ms(1))
	c.Add("m", ms(1))
	names := c.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCollectorMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.Add("x", ms(1))
	b.Add("x", ms(3))
	b.Add("y", ms(5))
	a.Merge(b)
	if a.Count("x") != 2 || a.Count("y") != 1 {
		t.Fatalf("merge counts = %d/%d", a.Count("x"), a.Count("y"))
	}
	// merge must not alias b's storage
	b.Add("x", ms(7))
	if a.Count("x") != 2 {
		t.Fatal("Merge aliased source collector")
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.Add("x", ms(1))
	c.Reset()
	if len(c.Names()) != 0 {
		t.Fatal("Reset left series behind")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Add("s", ms(j))
			}
		}()
	}
	wg.Wait()
	if got := c.Count("s"); got != 8000 {
		t.Fatalf("concurrent Count = %d, want 8000", got)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Components: map[string]time.Duration{"a": ms(1), "b": ms(2)}}
	if b.Total() != ms(3) {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "Fig. 3", Header: []string{"N", "launch", "init"}}
	tab.AddRow("1", "2.001", "25.3")
	tab.AddRow("640", "18.2", "25.1")
	out := tab.Render()
	if !strings.Contains(out, "Fig. 3") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	// alignment: the header's "launch" column must start at the same offset
	// as the corresponding data cells
	hIdx := strings.Index(lines[1], "launch")
	dIdx := strings.Index(lines[3], "2.001")
	if hIdx != dIdx {
		t.Fatalf("column misaligned: header at %d, data at %d\n%s", hIdx, dIdx, out)
	}
}

func TestFormatters(t *testing.T) {
	s := Stats{Mean: 2 * time.Second, Std: 250 * time.Millisecond}
	if got := FmtMeanStd(s); got != "2.000 ± 0.250" {
		t.Fatalf("FmtMeanStd = %q", got)
	}
	str := Stats{N: 1, Mean: time.Second}.String()
	if !strings.Contains(str, "n=1") || !strings.Contains(str, "mean=1.000s") {
		t.Fatalf("Stats.String = %q", str)
	}
}

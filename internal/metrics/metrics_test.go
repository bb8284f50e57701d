package metrics

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestComputeBasic(t *testing.T) {
	s := compute([]time.Duration{ms(10), ms(20), ms(30), ms(40)})
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
	s := compute(nil)
	if s.N != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty compute = %+v", s)
	}
}

func TestComputeSingle(t *testing.T) {
	s := compute([]time.Duration{ms(7)})
	if s.Mean != ms(7) || s.Std != 0 || s.P50 != ms(7) || s.P99 != ms(7) {
		t.Fatalf("single compute = %+v", s)
	}
}

func TestComputeDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{ms(3), ms(1), ms(2)}
	compute(in)
	if in[0] != ms(3) || in[1] != ms(1) || in[2] != ms(2) {
		t.Fatal("compute sorted the caller's slice")
	}
}

func TestComputeStd(t *testing.T) {
	// values 10,10,20,20 → mean 15, std 5
	s := compute([]time.Duration{ms(10), ms(10), ms(20), ms(20)})
	if s.Std < ms(5)-time.Microsecond || s.Std > ms(5)+time.Microsecond {
		t.Fatalf("Std = %v, want 5ms", s.Std)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]time.Duration, 100)
	for i := range vals {
		vals[i] = ms(i + 1) // 1..100 ms
	}
	s := compute(vals)
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
		s := compute(vals)
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

// TestCollectorAddAll pins the series AddAll feeds: one per named part,
// named as the map-keyed breakdown named them, and none for a zero one.
func TestCollectorAddAll(t *testing.T) {
	c := NewCollector()
	c.AddAll("rt", Breakdown{{"communication", ms(1)}, {"service", ms(2)}, {"inference", ms(3)}})
	c.AddAll("bt", Breakdown{{"launch", ms(4)}, {"init", ms(5)}, {"publish", ms(6)}})
	c.AddAll("none", Breakdown{})
	var names []string
	for name := range c.series {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{"bt.init", "bt.launch", "bt.publish", "rt.communication", "rt.inference", "rt.service"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("series %v, want %v", names, want)
	}
	if got := c.Series("rt.service"); len(got) != 1 || got[0] != ms(2) {
		t.Fatalf("rt.service = %v, want [2ms]", got)
	}
	if got := c.Series("bt.publish"); len(got) != 1 || got[0] != ms(6) {
		t.Fatalf("bt.publish = %v, want [6ms]", got)
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
	b := Breakdown{{"communication", ms(1)}, {"service", ms(2)}, {"inference", ms(4)}}
	if b.Total() != b[0].D+b[1].D+b[2].D || b.Total() != ms(7) {
		t.Fatalf("Total = %v, want the parts' sum 7ms", b.Total())
	}
	if zero := (Breakdown{}); zero.Total() != 0 {
		t.Fatalf("zero breakdown: Total %v", zero.Total())
	}
}

func TestBreakdownGet(t *testing.T) {
	b := Breakdown{{"launch", ms(1)}, {"init", ms(2)}, {"publish", ms(4)}}
	for _, p := range b {
		if got := b.Get(p.Name); got != p.D {
			t.Fatalf("Get(%q) = %v, want %v", p.Name, got, p.D)
		}
	}
	if got := b.Get("communication"); got != 0 {
		t.Fatalf("Get of an absent part = %v, want 0", got)
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

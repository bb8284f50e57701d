package loadbal

import (
	"fmt"
	"testing"
	"testing/quick"
)

// depths is a static LoadView: one depth per candidate, every report
// maximally fresh.
type depths []int

func (d depths) Len() int                { return len(d) }
func (d depths) Load(i int) (int, int64) { return d[i], 1 }

func TestRoundRobinCycles(t *testing.T) {
	b := NewRoundRobin()
	v := make(depths, 3)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			if got := b.PickIndex(v, 0); got != i {
				t.Fatalf("round %d pick %d = %d", round, i, got)
			}
		}
	}
}

// TestRoundRobinEmpty pins the n <= 1 guard: an empty or single view
// picks index 0 (callers reject empty sets themselves) without dividing
// by zero or advancing the rotation.
func TestRoundRobinEmpty(t *testing.T) {
	b := NewRoundRobin()
	for _, v := range []depths{nil, {7}} {
		if got := b.PickIndex(v, 0); got != 0 {
			t.Fatalf("PickIndex over %d candidates = %d, want 0", len(v), got)
		}
	}
	if got := b.PickIndex(make(depths, 3), 0); got != 0 {
		t.Fatalf("first real pick = %d, want 0 (degenerate views advanced the rotation)", got)
	}
}

func TestRoundRobinFairnessProperty(t *testing.T) {
	// Property: over k*n picks on n candidates, every candidate is picked
	// exactly k times.
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 1
		k := int(kRaw%8) + 1
		b := NewRoundRobin()
		v := make(depths, n)
		counts := make([]int, n)
		for i := 0; i < k*n; i++ {
			counts[b.PickIndex(v, 0)]++
		}
		for _, c := range counts {
			if c != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastLoadedPicksShallowest(t *testing.T) {
	b := &leastLoaded{}
	if got := b.PickIndex(depths{5, 1, 3}, 0); got != 1 {
		t.Fatalf("picked %d, want the shallowest queue (1)", got)
	}
}

func TestLeastLoadedTieBreaksAcrossCalls(t *testing.T) {
	b := &leastLoaded{}
	v := make(depths, 4)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[b.PickIndex(v, 0)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("all-ties picks covered %d of 4 candidates, want the rotating offset to visit each", len(seen))
	}
}

func TestLeastLoadedEmpty(t *testing.T) {
	if got := (&leastLoaded{}).PickIndex(depths(nil), 0); got != 0 {
		t.Fatalf("PickIndex over no candidates = %d, want 0", got)
	}
}

func TestLeastLoadedAdaptsToChangingDepths(t *testing.T) {
	b := &leastLoaded{}
	v := depths{0, 0}
	first := b.PickIndex(v, 0)
	v[first] = 10
	if second := b.PickIndex(v, 0); second == first {
		t.Fatal("picker kept routing to the loaded instance")
	}
}

// TestPickerByName pins one spelling per picker: each canonical name builds
// its picker, and anything else is rejected.
func TestPickerByName(t *testing.T) {
	for name, want := range map[string]Picker{
		"":             &P2C{},
		"p2c":          &P2C{},
		"round-robin":  &RoundRobin{},
		"least-loaded": &leastLoaded{},
	} {
		p, err := PickerByName(name, 1)
		if err != nil {
			t.Fatalf("PickerByName(%q): %v", name, err)
		}
		if got, w := fmt.Sprintf("%T", p), fmt.Sprintf("%T", want); got != w {
			t.Fatalf("PickerByName(%q) = %s, want %s", name, got, w)
		}
	}
	for _, bad := range []string{"rr", "least", "random"} {
		if _, err := PickerByName(bad, 1); err == nil {
			t.Fatalf("PickerByName(%q) accepted", bad)
		}
	}
}

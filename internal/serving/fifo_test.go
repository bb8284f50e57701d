package serving

import "testing"

// TestFIFOOrderAcrossGrowthAndWrap interleaves pushes and pops so the ring
// wraps before it grows, and checks every item leaves in arrival order.
func TestFIFOOrderAcrossGrowthAndWrap(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < round/2+1 && q.len() > 0; i++ {
			if q.at(0) != want {
				t.Fatalf("at(0) = %d, want %d", q.at(0), want)
			}
			if got := q.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for q.len() > 0 {
		if got := q.pop(); got != want {
			t.Fatalf("drain pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items of %d pushed", want, next)
	}
}

// TestFIFOReusesItsRing fills a queue deep, drains it, and checks a refill
// to the same depth allocates nothing and a pop leaves no reference behind.
func TestFIFOReusesItsRing(t *testing.T) {
	const depth = 1 << 12
	var q fifo[*job]
	j := &job{}
	fill := func() {
		for i := 0; i < depth; i++ {
			q.push(j)
		}
		for q.len() > 0 {
			q.pop()
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("refilling a drained queue allocates %.1f objects, want 0", allocs)
	}
	for i, v := range q.ring {
		if v != nil {
			t.Fatalf("slot %d still holds a popped job", i)
		}
	}
}

package scheduler

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/platform"
)

// collector gathers placements in arrival order.
type collector struct {
	mu     sync.Mutex
	placed []Placement
	notify chan struct{}
}

func newCollector() *collector {
	return &collector{notify: make(chan struct{}, 1024)}
}

func (c *collector) fn(p Placement) {
	c.mu.Lock()
	c.placed = append(c.placed, p)
	c.mu.Unlock()
	c.notify <- struct{}{}
}

func (c *collector) waitN(t *testing.T, n int) []Placement {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.placed) >= n {
			out := append([]Placement{}, c.placed...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-deadline:
			c.mu.Lock()
			got := len(c.placed)
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %d placements, have %d", n, got)
		}
	}
}

func nodes(n, cores, gpus int) []*platform.Node {
	p := platform.New("test", n, platform.NodeSpec{Cores: cores, GPUs: gpus, MemGB: 256})
	return p.Nodes()
}

func TestSubmitPlacesImmediately(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 8, 2), c.fn)
	defer s.Close()
	if err := s.Submit(Request{UID: "t1", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	got := c.waitN(t, 1)
	if got[0].Req.UID != "t1" || len(got[0].Alloc.Cores) != 4 {
		t.Fatalf("placement = %+v", got[0])
	}
}

func TestUnsatisfiableRejected(t *testing.T) {
	c := newCollector()
	s := New(nodes(2, 8, 2), c.fn)
	defer s.Close()
	err := s.Submit(Request{UID: "huge", Cores: 9})
	var uns ErrUnsatisfiable
	if !errors.As(err, &uns) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	if uns.Req.UID != "huge" {
		t.Fatalf("ErrUnsatisfiable carries %q", uns.Req.UID)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 8, 2), c.fn)
	s.Close()
	s.Close() // idempotent
	if err := s.Submit(Request{UID: "t", Cores: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn)
	defer s.Close()
	_ = s.Submit(Request{UID: "a", Cores: 4})
	_ = s.Submit(Request{UID: "b", Cores: 4})
	placed := c.waitN(t, 1)
	if placed[0].Req.UID != "a" {
		t.Fatalf("first placement = %s", placed[0].Req.UID)
	}
	if w := s.Waiting(); w != 1 {
		t.Fatalf("Waiting = %d, want 1", w)
	}
	// releasing a's allocation lets b in
	s.Release(placed[0].Alloc)
	placed = c.waitN(t, 2)
	if placed[1].Req.UID != "b" {
		t.Fatalf("second placement = %s", placed[1].Req.UID)
	}
	if s.Scheduled() != 2 {
		t.Fatalf("Scheduled = %d", s.Scheduled())
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Fill the node, then queue a task and a service; on release the
	// service (higher priority) must be placed first even though the task
	// was submitted earlier.
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn)
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 4})
	first := c.waitN(t, 1)[0]
	_ = s.Submit(Request{UID: "task", Cores: 4, Priority: 0})
	_ = s.Submit(Request{UID: "service", Cores: 4, Priority: 100})
	s.Release(first.Alloc)
	second := c.waitN(t, 2)[1]
	if second.Req.UID != "service" {
		t.Fatalf("placed %q after release, want the higher-priority service", second.Req.UID)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 2, 0), c.fn)
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 2})
	first := c.waitN(t, 1)[0]
	for _, uid := range []string{"p1", "p2", "p3"} {
		_ = s.Submit(Request{UID: uid, Cores: 2, Priority: 5})
	}
	s.Release(first.Alloc)
	second := c.waitN(t, 2)[1]
	if second.Req.UID != "p1" {
		t.Fatalf("FIFO violated: %q placed first", second.Req.UID)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// Strict priority: a large high-priority head must NOT be bypassed by a
	// small low-priority request (no backfill) — services must not starve.
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn)
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 3})
	c.waitN(t, 1)
	_ = s.Submit(Request{UID: "big-service", Cores: 4, Priority: 100})
	_ = s.Submit(Request{UID: "small-task", Cores: 1, Priority: 0})
	time.Sleep(50 * time.Millisecond)
	c.mu.Lock()
	n := len(c.placed)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d placements, want 1: small task must not jump the blocked service", n)
	}
}

func TestGPUPlacement(t *testing.T) {
	c := newCollector()
	s := New(nodes(2, 8, 4), c.fn)
	defer s.Close()
	for i := 0; i < 8; i++ {
		_ = s.Submit(Request{UID: "svc", GPUs: 1})
	}
	placed := c.waitN(t, 8)
	perNode := map[string]int{}
	for _, p := range placed {
		perNode[p.Alloc.Node().Name()] += len(p.Alloc.GPUs)
	}
	for node, gpus := range perNode {
		if gpus > 4 {
			t.Fatalf("node %s got %d GPUs, capacity 4", node, gpus)
		}
	}
	if s.Waiting() != 0 {
		t.Fatalf("Waiting = %d after full placement", s.Waiting())
	}
}

func TestManyConcurrentSubmitters(t *testing.T) {
	c := newCollector()
	s := New(nodes(4, 64, 8), c.fn)
	defer s.Close()
	var wg sync.WaitGroup
	const n = 128
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Submit(Request{UID: "t", Cores: 2}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	placed := c.waitN(t, n)
	if len(placed) != n {
		t.Fatalf("placed %d, want %d", len(placed), n)
	}
	// conservation: released everything → all cores free again
	for _, p := range placed {
		s.Release(p.Alloc)
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: after any burst of submissions and full release, every node
	// returns to idle, and no placement ever exceeded node capacity.
	f := func(sizes []uint8) bool {
		c := newCollector()
		s := New(nodes(2, 16, 4), c.fn)
		defer s.Close()
		expected := 0
		for _, b := range sizes {
			req := Request{UID: "t", Cores: int(b%16) + 1, GPUs: int(b % 5)}
			if err := s.Submit(req); err == nil {
				expected++
			}
		}
		// release as they arrive until all placed
		released := 0
		deadline := time.After(5 * time.Second)
		for released < expected {
			c.mu.Lock()
			avail := len(c.placed)
			c.mu.Unlock()
			if released < avail {
				c.mu.Lock()
				p := c.placed[released]
				c.mu.Unlock()
				if len(p.Alloc.Cores) > 16 || len(p.Alloc.GPUs) > 4 {
					return false
				}
				s.Release(p.Alloc)
				released++
				continue
			}
			select {
			case <-c.notify:
			case <-deadline:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseWithoutWaiterDecidesNothing: a release that finds the wait pool
// empty advances the generation by exactly one, its own, and wakes nobody. It
// used to poke the loop, whose empty pass took the lock and advanced the
// generation a second time.
func TestReleaseWithoutWaiterDecidesNothing(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 8, 0), c.fn)
	defer s.Close()
	const n = 4
	for i := 0; i < n; i++ {
		if err := s.Submit(Request{UID: "t", Cores: 2}); err != nil {
			t.Fatal(err)
		}
	}
	placed := c.waitN(t, n)
	// The loop ends a pass that granted with one that does not: let it park.
	settled := func() uint64 {
		g := s.Generation()
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			next := s.Generation()
			if next == g {
				return g
			}
			g = next
		}
		t.Fatal("generation never settled")
		return 0
	}
	for i, p := range placed {
		before := settled()
		s.Release(p.Alloc)
		time.Sleep(20 * time.Millisecond) // a woken loop would have run by now
		if got := s.Generation(); got != before+1 {
			t.Fatalf("release %d with nothing waiting: generation %d -> %d, want one step", i, before, got)
		}
		select {
		case <-s.kick:
			t.Fatalf("release %d with nothing waiting kicked the loop", i)
		default:
		}
	}
	// A blocked head is what a release is for.
	for i := 0; i < 2; i++ {
		if err := s.Submit(Request{UID: "big", Cores: 8}); err != nil {
			t.Fatal(err)
		}
	}
	big := c.waitN(t, n+1)[n]
	if s.Waiting() != 1 {
		t.Fatalf("%d waiting behind a full node, want 1", s.Waiting())
	}
	s.Release(big.Alloc)
	c.waitN(t, n+2)
}

// TestSubmitVsReleasePokeSingleWinner: a request that fits only after a
// concurrent Release is always granted. Release looks at the wait pool under
// the lock Submit pushes under, and Submit kicks for itself: whichever of the
// two comes second under the lock wakes the loop, after the capacity is back.
func TestSubmitVsReleasePokeSingleWinner(t *testing.T) {
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn)
	defer s.Close()
	granted := 0
	for i := 0; i < 500; i++ {
		if err := s.Submit(Request{UID: "holder", Cores: 4}); err != nil {
			t.Fatal(err)
		}
		granted++
		holder := c.waitN(t, granted)[granted-1]
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Release(holder.Alloc) }()
		go func() {
			defer wg.Done()
			if err := s.Submit(Request{UID: "waiter", Cores: 4}); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		granted++
		waiter := c.waitN(t, granted)[granted-1] // times out if nobody woke the loop
		if waiter.Req.UID != "waiter" {
			t.Fatalf("round %d: granted %s, want the waiter", i, waiter.Req.UID)
		}
		s.Release(waiter.Alloc)
	}
	if got := s.Scheduled(); got != granted {
		t.Fatalf("%d grants for %d requests", got, granted)
	}
}

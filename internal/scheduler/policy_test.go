package scheduler

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/rng"
)

func TestPolicyByName(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", policyStrict},
		{"strict", policyStrict},
		{"backfill", policyBackfill},
		{"best-fit", policyBestFit},
	}
	for _, c := range cases {
		p, err := PolicyByName(c.in)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", c.in, err)
		}
		if p.Name() != c.want {
			t.Fatalf("PolicyByName(%q).Name() = %q, want %q", c.in, p.Name(), c.want)
		}
	}
	for _, bad := range []string{"round-robin", "fifo", "bestfit", "best_fit"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Fatalf("PolicyByName(%q) accepted", bad)
		}
	}
	// A policy name is the bare name: the starvation-bound grammar is gone.
	for _, bad := range []string{"strict:k=1", "backfill:k=3,t=2m", "best-fit:k=-1,t=-1", "backfill:", "best-fit:"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Fatalf("PolicyByName(%q) accepted", bad)
		}
	}
	// Backfill policies are stateful: instances must be fresh per call.
	a, _ := PolicyByName(policyBackfill)
	b, _ := PolicyByName(policyBackfill)
	if a == b {
		t.Fatal("PolicyByName returned a shared backfill instance")
	}
}

func TestPolicyDefaultIsStrict(t *testing.T) {
	s := New(nodes(1, 4, 0), func(Placement) {})
	defer s.Close()
	if got := s.Policy().Name(); got != policyStrict {
		t.Fatalf("default policy = %q, want %q", got, policyStrict)
	}
}

// TestPolicyStrictKeepsHeadOfLineBlocking pins that an explicitly selected
// strict policy behaves like the default: a small low-priority request
// never jumps a blocked high-priority head.
func TestPolicyStrictKeepsHeadOfLineBlocking(t *testing.T) {
	clock := heldClock(t)
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn, WithPolicy(strictPolicy{}), WithClock(clock))
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 3})
	c.waitN(t, 1)
	_ = s.Submit(Request{UID: "big-service", Cores: 4, Priority: 100})
	_ = s.Submit(Request{UID: "small-task", Cores: 1, Priority: 0})
	clock.Settle()
	if n := c.count(); n != 1 {
		t.Fatalf("%d placements under strict, want 1", n)
	}
}

// TestPolicyBackfillBypassesBlockedHead is the counterpart: with backfill,
// the small task is granted from the capacity the blocked head cannot use,
// and the head is still granted first once it fits.
func TestPolicyBackfillBypassesBlockedHead(t *testing.T) {
	clock := heldClock(t)
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn, WithPolicy(Backfill(BackfillConfig{})), WithClock(clock))
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 3})
	filler := c.waitN(t, 1)[0]
	_ = s.Submit(Request{UID: "big-service", Cores: 4, Priority: 100})
	_ = s.Submit(Request{UID: "small-task", Cores: 1, Priority: 0})
	got := c.waitN(t, 2)
	if got[1].Req.UID != "small-task" {
		t.Fatalf("backfilled %q, want small-task", got[1].Req.UID)
	}
	// Freeing everything must grant the head before anything else. The two
	// releases have to reach the loop as one, once it has parked on late-task
	// (nothing fits): two Scheduler.Release calls let it backfill late-task
	// into the capacity the first returns, about one run in twenty under
	// -race.
	_ = s.Submit(Request{UID: "late-task", Cores: 1, Priority: 0})
	clock.Settle()
	releaseTogether(s, got[1].Alloc, filler.Alloc)
	got = c.waitN(t, 3)
	if got[2].Req.UID != "big-service" {
		t.Fatalf("post-release grant = %s, want big-service", got[2].Req.UID)
	}
	s.Release(got[2].Alloc)
	if got = c.waitN(t, 4); got[3].Req.UID != "late-task" {
		t.Fatalf("final grant = %s, want late-task", got[3].Req.UID)
	}
}

// releaseTogether is Scheduler.Release for several allocations at once: the
// nodes and their index leaves change under one hold of s.mu, so no pass sees
// some of the capacity back without the rest.
func releaseTogether(s *Scheduler, allocs ...*platform.Allocation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range allocs {
		a.Release()
		s.index.refresh(s.nodeOf[a.Node()])
	}
	s.gen.Add(1)
	s.pokeLocked()
}

// TestPolicyBackfillPrefersHighestPriorityFitting: backfill is not "first
// fitting wins" — among the requests that fit, strict (priority, FIFO)
// order still decides. The node is full while both candidates queue, and
// the passes their Submits kicked have ended before a core frees: a pass
// still scanning when Release frees the core could see it only after
// passing mid-late over.
func TestPolicyBackfillPrefersHighestPriorityFitting(t *testing.T) {
	clock := heldClock(t)
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn, WithPolicy(Backfill(BackfillConfig{})), WithClock(clock))
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 3})
	_ = s.Submit(Request{UID: "hold", Cores: 1})
	hold := c.waitN(t, 2)[1]
	_ = s.Submit(Request{UID: "blocked-head", Cores: 4, Priority: 100})
	_ = s.Submit(Request{UID: "low-early", Cores: 1, Priority: 0})
	_ = s.Submit(Request{UID: "mid-late", Cores: 1, Priority: 50})
	clock.Settle()
	s.Release(hold.Alloc)
	got := c.waitN(t, 3)
	if got[2].Req.UID != "mid-late" {
		t.Fatalf("first backfill grant = %q, want the higher-priority mid-late", got[2].Req.UID)
	}
	s.Release(got[2].Alloc)
	if got = c.waitN(t, 4); got[3].Req.UID != "low-early" {
		t.Fatalf("second backfill grant = %q, want low-early", got[3].Req.UID)
	}
}

// TestPolicyBackfillStarvationBound is the property test of the ISSUE's
// acceptance criteria: over randomized streams of fitting small tasks,
// backfill never bypasses one blocked head more than the configured K,
// and the head is granted as soon as its demand fits.
func TestPolicyBackfillStarvationBound(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		maxBypass := 1 + src.Intn(12)
		nSmall := 1 + src.Intn(3*maxBypass)
		func() {
			clock := heldClock(t)
			c := newCollector()
			s := New(nodes(1, 8, 0), c.fn, WithPolicy(Backfill(BackfillConfig{
				MaxBypass: maxBypass,
				MaxDelay:  -1, // isolate the count bound
			})), WithClock(clock))
			defer s.Close()
			_ = s.Submit(Request{UID: "hold", Cores: 1})
			hold := c.waitN(t, 1)[0]
			_ = s.Submit(Request{UID: "big", Cores: 8, Priority: 100})
			for i := 0; i < nSmall; i++ {
				_ = s.Submit(Request{UID: fmt.Sprintf("small-%03d", i), Cores: 1 + src.Intn(7)})
			}
			// Release each backfilled small as it lands so capacity keeps
			// returning: an unbounded policy would drain every small.
			want := min(nSmall, maxBypass)
			for seen := 1; seen < 1+want; seen++ {
				p := c.waitN(t, seen+1)[seen]
				if p.Req.UID == "big" {
					t.Fatalf("trial %d: big granted while blocked", trial)
				}
				s.Release(p.Alloc)
			}
			// The bound must now be in force: no further smalls sneak by.
			clock.Settle()
			if n := c.count(); n != 1+want {
				t.Fatalf("trial %d: %d grants while head blocked, starvation bound K=%d (smalls=%d)",
					trial, n-1, maxBypass, nSmall)
			}
			// Unblock: the head must be granted before the remaining smalls.
			s.Release(hold.Alloc)
			got := c.waitN(t, 2+want)
			if got[1+want].Req.UID != "big" {
				t.Fatalf("trial %d: post-release grant = %q, want big", trial, got[1+want].Req.UID)
			}
			s.Release(got[1+want].Alloc)
			// Drain the leftover smalls one release at a time: later ones
			// only fit once earlier ones give their cores back.
			for seen := 2 + want; seen < 2+nSmall; seen++ {
				s.Release(c.waitN(t, seen+1)[seen].Alloc)
			}
		}()
	}
}

// TestPolicyBackfillBoundSurvivesHeadChurn pins the per-request nature of
// the starvation bound: when a blocked head with an exhausted bypass
// budget is temporarily displaced by a higher-priority arrival and then
// returns to the head, it must NOT receive a fresh budget — otherwise a
// steady trickle of services plus small tasks could starve it forever.
func TestPolicyBackfillBoundSurvivesHeadChurn(t *testing.T) {
	clock := heldClock(t)
	c := newCollector()
	s := New(nodes(1, 8, 0), c.fn, WithPolicy(Backfill(BackfillConfig{
		MaxBypass: 2,
		MaxDelay:  -1,
	})), WithClock(clock))
	defer s.Close()
	_ = s.Submit(Request{UID: "hold", Cores: 1})
	hold := c.waitN(t, 1)[0]
	_ = s.Submit(Request{UID: "big", Cores: 8, Priority: 50}) // blocked head
	// Exhaust big's bypass budget (K=2).
	_ = s.Submit(Request{UID: "bypass-0", Cores: 1})
	s.Release(c.waitN(t, 2)[1].Alloc)
	_ = s.Submit(Request{UID: "bypass-1", Cores: 1})
	s.Release(c.waitN(t, 3)[2].Alloc)
	// Head churn: a higher-priority request displaces big and is granted.
	_ = s.Submit(Request{UID: "urgent", Cores: 7, Priority: 100})
	urgent := c.waitN(t, 4)[3]
	if urgent.Req.UID != "urgent" {
		t.Fatalf("grant 3 = %q, want urgent", urgent.Req.UID)
	}
	s.Release(urgent.Alloc)
	// big is back at the head with its budget spent: no more bypasses.
	_ = s.Submit(Request{UID: "bypass-2", Cores: 1})
	clock.Settle()
	if n := c.count(); n != 4 {
		t.Fatalf("%d grants after head churn, want 4: big's bypass budget must stay exhausted", n)
	}
	// Unblocking still grants big first, then the waiting small.
	s.Release(hold.Alloc)
	got := c.waitN(t, 5)
	if got[4].Req.UID != "big" {
		t.Fatalf("post-release grant = %q, want big", got[4].Req.UID)
	}
	s.Release(got[4].Alloc)
	if got = c.waitN(t, 6); got[5].Req.UID != "bypass-2" {
		t.Fatalf("final grant = %q, want bypass-2", got[5].Req.UID)
	}
}

// TestPolicyBackfillTimeBound exercises T on a virtual clock: once the
// head has been blocked longer than MaxDelay of simulated time, backfill
// suspends even though the bypass count is far from exhausted.
func TestPolicyBackfillTimeBound(t *testing.T) {
	vclock := heldClock(t)
	c := newCollector()
	s := New(nodes(1, 4, 0), c.fn, WithPolicy(Backfill(BackfillConfig{
		MaxBypass: -1, // isolate the time bound
		MaxDelay:  10 * time.Second,
	})), WithClock(vclock))
	defer s.Close()
	_ = s.Submit(Request{UID: "filler", Cores: 3})
	c.waitN(t, 1)
	_ = s.Submit(Request{UID: "big", Cores: 4, Priority: 100}) // arms blockedSince
	_ = s.Submit(Request{UID: "small-0", Cores: 1})
	first := c.waitN(t, 2)[1]
	if first.Req.UID != "small-0" {
		t.Fatalf("grant inside the window = %q", first.Req.UID)
	}
	s.Release(first.Alloc)
	vclock.Sleep(11 * time.Second)
	_ = s.Submit(Request{UID: "small-1", Cores: 1})
	vclock.Settle()
	if n := c.count(); n != 2 {
		t.Fatalf("%d grants after T elapsed, want 2 (backfill suspended)", n)
	}
}

// TestPolicyBestFitReducesFragmentation: on a heterogeneous pool, best-fit
// packs a small request onto the small node so a following large request
// still fits the large node — where first-fit fragments it.
func TestPolicyBestFitReducesFragmentation(t *testing.T) {
	hetero := func() []*platform.Node {
		return []*platform.Node{
			platform.NewNode("large", platform.NodeSpec{Cores: 64, GPUs: 0, MemGB: 256}),
			platform.NewNode("small", platform.NodeSpec{Cores: 8, GPUs: 0, MemGB: 32}),
		}
	}

	// Best-fit: the 4-core task lands on "small"; the 64-core task fits.
	c := newCollector()
	s := New(hetero(), c.fn, WithPolicy(BestFit(BackfillConfig{})))
	_ = s.Submit(Request{UID: "small-task", Cores: 4})
	_ = s.Submit(Request{UID: "large-task", Cores: 64})
	got := c.waitN(t, 2)
	if node := got[0].Alloc.Node().Name(); node != "small" {
		t.Fatalf("best-fit placed small-task on %q, want the small node", node)
	}
	if got[1].Req.UID != "large-task" || got[1].Alloc.Node().Name() != "large" {
		t.Fatalf("large-task not granted on the large node: %+v", got[1].Req)
	}
	s.Close()

	// First-fit control: the 4-core task fragments the large node and the
	// 64-core task is stuck waiting.
	clock := heldClock(t)
	c = newCollector()
	s = New(hetero(), c.fn, WithPolicy(strictPolicy{}), WithClock(clock))
	defer s.Close()
	_ = s.Submit(Request{UID: "small-task", Cores: 4})
	_ = s.Submit(Request{UID: "large-task", Cores: 64})
	got = c.waitN(t, 1)
	if node := got[0].Alloc.Node().Name(); node != "large" {
		t.Fatalf("first-fit placed small-task on %q, want the large node", node)
	}
	clock.Settle()
	if w := s.Waiting(); w != 1 {
		t.Fatalf("first-fit left %d waiting, want the fragmented large-task", w)
	}
}

// TestPolicyBestFitTieBreaksLikeFirstFit: equal residuals resolve to the
// lowest node index, so on homogeneous pools best-fit stays deterministic
// and matches first-fit.
func TestPolicyBestFitTieBreaksLikeFirstFit(t *testing.T) {
	c := newCollector()
	s := New(nodes(4, 8, 0), c.fn, WithPolicy(BestFit(BackfillConfig{})))
	defer s.Close()
	for i := 0; i < 4; i++ {
		_ = s.Submit(Request{UID: fmt.Sprintf("t%d", i), Cores: 8})
	}
	for i, p := range c.waitN(t, 4) {
		want := fmt.Sprintf("test-node%04d", i)
		if p.Alloc.Node().Name() != want {
			t.Fatalf("grant %d on %s, want %s", i, p.Alloc.Node().Name(), want)
		}
	}
}

// TestPolicyBackfillHeterogeneousGPUs drives a mixed CPU/GPU workload:
// a GPU-hungry head blocked on exhausted GPUs must not stop CPU-only
// work, and GPU accounting stays exact throughout.
func TestPolicyBackfillHeterogeneousGPUs(t *testing.T) {
	c := newCollector()
	s := New(nodes(2, 8, 2), c.fn, WithPolicy(Backfill(BackfillConfig{MaxBypass: 64})))
	defer s.Close()
	// Exhaust all 4 GPUs.
	for i := 0; i < 4; i++ {
		_ = s.Submit(Request{UID: fmt.Sprintf("gpu-%d", i), GPUs: 1})
	}
	c.waitN(t, 4)
	_ = s.Submit(Request{UID: "gpu-head", GPUs: 2, Priority: 100}) // blocked
	for i := 0; i < 6; i++ {
		_ = s.Submit(Request{UID: fmt.Sprintf("cpu-%d", i), Cores: 2})
	}
	got := c.waitN(t, 10)
	for _, p := range got[4:] {
		if p.Req.UID == "gpu-head" {
			t.Fatal("gpu-head granted without free GPUs")
		}
		if len(p.Alloc.GPUs) != 0 {
			t.Fatalf("CPU task %s granted GPUs %v", p.Req.UID, p.Alloc.GPUs)
		}
	}
	s.Release(got[0].Alloc)
	s.Release(got[1].Alloc)
	got = c.waitN(t, 11)
	if got[10].Req.UID != "gpu-head" {
		t.Fatalf("after GPU release, grant = %q, want gpu-head", got[10].Req.UID)
	}
}

package core

// Tests for the session-level routing seam: round-robin seed
// equivalence, the Submit partial-failure contract, capacity-fit routing
// on mismatched pilots, re-routing of queued tasks across pilot
// shutdown, the session overflow pool, and the Wait error path for tasks
// owned by a dead pilot.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// heteroSession builds a session on a private fat+thin campus and
// acquires one pilot per partition (fat first), exercising exactly the
// mismatched-pilot layout of the route ablation at test scale.
func heteroSession(t *testing.T, rt string) (*Session, *pilot.Pilot, *pilot.Pilot) {
	t.Helper()
	fat := platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 256}
	thin := platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
	mix := platform.NewMixed("campus", []platform.NodeGroup{
		{Count: 2, Spec: fat}, {Count: 4, Spec: thin},
	})
	s, err := NewSession(SessionConfig{
		Seed:     3,
		Clock:    simtime.NewScaled(100000, DefaultOrigin),
		Topology: platform.NewTopology(mix),
		FastBoot: true,
		Router:   rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	fatP, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "campus", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	thinP, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "campus", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fatP.Shapes()) != 1 || fatP.Shapes()[0].Spec != fat {
		t.Fatalf("fat pilot shapes = %+v", fatP.Shapes())
	}
	if len(thinP.Shapes()) != 1 || thinP.Shapes()[0].Spec != thin {
		t.Fatalf("thin pilot shapes = %+v", thinP.Shapes())
	}
	return s, fatP, thinP
}

// TestRouterRoundRobinMatchesSeedSequence is the equivalence pin the
// tentpole requires: with the default router, the task→pilot sequence is
// byte-for-byte the seed TaskManager's round-robin — including across
// batch boundaries — verified against an inline reimplementation of the
// seed dispatch loop.
func TestRouterRoundRobinMatchesSeedSequence(t *testing.T) {
	s := newSession(t, 100000)
	tm := s.TaskManager()
	var pilots []*pilot.Pilot
	for i := 0; i < 3; i++ {
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
		tm.AddPilot(p)
	}
	if got := tm.rt.Name(); got != router.NameRoundRobin {
		t.Fatalf("default router = %q, want %q", got, router.NameRoundRobin)
	}

	// Seed reference: pilots[(start+i) % len(pilots)], start accumulated
	// across batches.
	rr := 0
	seedPick := func() string {
		uid := pilots[rr%len(pilots)].UID()
		rr++
		return uid
	}

	ctx := context.Background()
	for _, batch := range []int{1, 4, 2, 7} {
		descs := make([]spec.TaskDescription, batch)
		for i := range descs {
			descs[i] = spec.TaskDescription{Name: "t", Cores: 1, Duration: rng.ConstDuration(time.Second)}
		}
		tasks, err := tm.Submit(ctx, descs...)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range tasks {
			if want := seedPick(); task.Pilot() != want {
				t.Fatalf("batch %d task %d routed to %s, seed sequence says %s",
					batch, i, task.Pilot(), want)
			}
		}
	}
}

// TestRouterSelectionThreadsToSession pins the config seam: a bad router
// name fails session construction, a named router is live in the task
// manager, and the default stays round-robin.
func TestRouterSelectionThreadsToSession(t *testing.T) {
	if _, err := NewSession(SessionConfig{Seed: 1, Router: "best-fit"}); err == nil {
		t.Fatal("NewSession accepted an unknown router name")
	}
	s, err := NewSession(SessionConfig{
		Seed:   1,
		Clock:  simtime.NewScaled(100000, DefaultOrigin),
		Router: "capacity-fit",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.TaskManager().rt.Name(); got != router.NameCapacityFit {
		t.Fatalf("router = %q, want capacity-fit", got)
	}
}

// TestTaskManagerSubmitPartialFailure pins the satellite contract: a
// mid-batch failure returns the successfully submitted prefix AND the
// error, and the router's sequence does not advance for the descriptions
// that were never submitted.
func TestTaskManagerSubmitPartialFailure(t *testing.T) {
	s := newSession(t, 100000)
	tm := s.TaskManager()
	var pilots []*pilot.Pilot
	for i := 0; i < 2; i++ {
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
		tm.AddPilot(p)
	}
	ctx := context.Background()
	ok := spec.TaskDescription{Name: "ok", Cores: 1, Duration: rng.ConstDuration(time.Second)}
	bad := spec.TaskDescription{Name: "bad", Cores: -1}

	tasks, err := tm.Submit(ctx, ok, bad, ok)
	if err == nil {
		t.Fatal("Submit swallowed the invalid description")
	}
	if len(tasks) != 1 {
		t.Fatalf("submitted prefix = %d tasks, want 1", len(tasks))
	}
	if tasks[0].Pilot() != pilots[0].UID() {
		t.Fatalf("prefix task on %s, want %s", tasks[0].Pilot(), pilots[0].UID())
	}
	// The failed and unsubmitted descriptions must not have advanced the
	// rotation: the next submission continues at pilot 1.
	more, err := tm.Submit(ctx, ok, ok)
	if err != nil {
		t.Fatal(err)
	}
	if more[0].Pilot() != pilots[1].UID() || more[1].Pilot() != pilots[0].UID() {
		t.Fatalf("continuation routed to %s,%s; want %s,%s (no advance for unsubmitted descs)",
			more[0].Pilot(), more[1].Pilot(), pilots[1].UID(), pilots[0].UID())
	}
}

// TestCapacityFitMismatchedPilotsEndToEnd drives the tentpole scenario
// at test scale: on fat+thin mismatched pilots, capacity-fit sends every
// shape-constrained task to the only pilot that can ever run it (all
// complete), and rejects tasks nobody could ever fit at submit time.
func TestCapacityFitMismatchedPilotsEndToEnd(t *testing.T) {
	s, fatP, thinP := heteroSession(t, "capacity-fit")
	tm := s.TaskManager()
	tm.AddPilot(fatP)
	tm.AddPilot(thinP)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var descs []spec.TaskDescription
	for i := 0; i < 4; i++ { // two per fat node over two rounds
		descs = append(descs, spec.TaskDescription{
			Name: "large", Cores: 64, GPUs: 8, Duration: rng.ConstDuration(2 * time.Second),
		})
	}
	for i := 0; i < 4; i++ {
		descs = append(descs, spec.TaskDescription{
			Name: "small", Cores: 16, Duration: rng.ConstDuration(2 * time.Second),
		})
	}
	tasks, err := tm.Submit(ctx, descs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(ctx, tasks...); err != nil {
		t.Fatalf("capacity-fit left shape-constrained work unfinished: %v", err)
	}
	for _, task := range tasks {
		if task.State() != states.TaskDone {
			t.Fatalf("task %s = %s", task.UID(), task.State())
		}
		if task.desc.Name == "large" && task.Pilot() != fatP.UID() {
			t.Fatalf("large task bound to %s, want fat pilot %s", task.Pilot(), fatP.UID())
		}
	}

	// A task no pilot's shapes could ever fit is rejected at submit.
	_, err = tm.Submit(ctx, spec.TaskDescription{Name: "monster", Cores: 1024})
	var unroutable router.ErrUnroutable
	if !errors.As(err, &unroutable) {
		t.Fatalf("unroutable submit error = %v, want router.ErrUnroutable", err)
	}
}

// TestRerouteOnPilotShutdown is the regression pin for late-binding
// failure recovery: a task queued (never granted) on a pilot that shuts
// down is re-routed to another active pilot and completes there.
func TestRerouteOnPilotShutdown(t *testing.T) {
	s := newSession(t, 100000)
	tm := s.TaskManager()
	a, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(a)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Saturate pilot A, then queue a task behind the holder.
	holder, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "holder", Cores: 64, Duration: rng.ConstDuration(1000 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, holder[0], states.TaskExecuting)
	queued, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "queued", Cores: 64, Duration: rng.ConstDuration(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, queued[0], states.TaskScheduling)

	// Attach a second pilot, then kill the first: the queued task must
	// follow the capacity.
	b, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(b)
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(ctx, queued[0]); err != nil {
		t.Fatalf("re-routed task failed: %v", err)
	}
	if queued[0].State() != states.TaskDone {
		t.Fatalf("re-routed task = %s", queued[0].State())
	}
	if queued[0].Pilot() != b.UID() {
		t.Fatalf("re-routed task on %s, want %s", queued[0].Pilot(), b.UID())
	}
	if queued[0].Reroutes() != 1 {
		t.Fatalf("reroutes = %d, want 1", queued[0].Reroutes())
	}
}

// TestOverflowPoolHoldsTasksUntilCapacityArrives: with no surviving
// pilot, a re-routable task parks in the session overflow pool and binds
// late — to the next pilot attached.
func TestOverflowPoolHoldsTasksUntilCapacityArrives(t *testing.T) {
	s := newSession(t, 100000)
	tm := s.TaskManager()
	a, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(a)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	holder, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "holder", Cores: 64, Duration: rng.ConstDuration(1000 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, holder[0], states.TaskExecuting)
	queued, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "queued", Cores: 8, Duration: rng.ConstDuration(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, queued[0], states.TaskScheduling)
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// No active pilot: the task must land in the overflow pool, reported
	// as session-held.
	deadline := time.Now().Add(10 * time.Second)
	for overflow(tm) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("overflow = %d, want 1", overflow(tm))
		}
		time.Sleep(time.Millisecond)
	}
	if st := queued[0].State(); st != states.TaskTmgrScheduling {
		t.Fatalf("pooled task state = %s, want %s", st, states.TaskTmgrScheduling)
	}

	b, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(b)
	if err := tm.Wait(ctx, queued[0]); err != nil {
		t.Fatalf("late-bound task failed: %v", err)
	}
	if overflow(tm) != 0 {
		t.Fatalf("overflow not drained: %d", overflow(tm))
	}
	if queued[0].Pilot() != b.UID() {
		t.Fatalf("late-bound task on %s, want %s", queued[0].Pilot(), b.UID())
	}
}

// TestWaitDeadPilotErrorPath pins the Wait error path for tasks owned by
// a dead pilot: a task pinned to a pilot is not re-routed, so when the
// pilot shuts down first the task fails with pilot.ErrPilotStopped and
// Wait surfaces it.
func TestWaitDeadPilotErrorPath(t *testing.T) {
	s := newSession(t, 100000)
	tm := s.TaskManager()
	a, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm.AddPilot(a)
	tm.AddPilot(b)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	holder, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "holder", Pilot: a.UID(), Cores: 64, Duration: rng.ConstDuration(1000 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, holder[0], states.TaskExecuting)
	pinned, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "pinned", Pilot: a.UID(), Cores: 64, Duration: rng.ConstDuration(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, pinned[0], states.TaskScheduling)
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	err = tm.Wait(ctx, pinned[0])
	if !errors.Is(err, pilot.ErrPilotStopped) {
		t.Fatalf("Wait error = %v, want pilot.ErrPilotStopped", err)
	}
	if pinned[0].State() != states.TaskFailed {
		t.Fatalf("pinned task = %s, want FAILED", pinned[0].State())
	}
	if pinned[0].Reroutes() != 0 {
		t.Fatalf("pinned task re-routed %d times", pinned[0].Reroutes())
	}
	// Submitting to the dead pilot by pin is rejected outright.
	if _, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "late", Pilot: a.UID(), Cores: 1, Duration: rng.ConstDuration(time.Second),
	}); err == nil {
		t.Fatal("Submit accepted a task pinned to a dead pilot")
	}
}

// waitState polls a session task into a wanted state.
func waitState(t *testing.T, task *Task, want states.State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for task.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("task %s stuck in %s, want %s", task.UID(), task.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverflowDrainRankedByRouter pins the drain-order satellite: when a
// new pilot attaches, a capacity-fit session drains the overflow pool
// through the router's own ranking — fits-now tasks first — while blind
// routers keep submission order. The scenario makes the order observable
// through strict head-of-line blocking: the new pilot has 16 free cores,
// the pool holds [big (64c), small (8c)] in submission order. Draining
// big first wedges both behind an ungrantable head; draining small first
// lets it run immediately.
func TestOverflowDrainRankedByRouter(t *testing.T) {
	run := func(t *testing.T, rt string) (*Task, *Task, *pilot.Pilot) {
		t.Helper()
		s, err := NewSession(SessionConfig{
			Seed:   42,
			Clock:  simtime.NewScaled(100000, DefaultOrigin),
			Router: rt,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		tm := s.TaskManager()
		a, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		tm.AddPilot(a)
		ctx := context.Background()

		// Saturate pilot A so big and small queue behind the holder, then
		// kill A: both park in the overflow pool in submission order.
		holder, err := tm.Submit(ctx, spec.TaskDescription{
			Name: "holder", Cores: 64, Duration: rng.ConstDuration(1000 * time.Hour),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, holder[0], states.TaskExecuting)
		big, err := tm.Submit(ctx, spec.TaskDescription{
			Name: "big", Cores: 64, Duration: rng.ConstDuration(time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		small, err := tm.Submit(ctx, spec.TaskDescription{
			Name: "small", Cores: 8, Duration: rng.ConstDuration(time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, big[0], states.TaskScheduling)
		waitState(t, small[0], states.TaskScheduling)
		if err := a.Shutdown(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for overflow(tm) != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("overflow = %d, want 2", overflow(tm))
			}
			time.Sleep(time.Millisecond)
		}

		// Pilot B arrives with only 16 cores free: a direct holder keeps
		// 48 occupied, so big can never start while it lives.
		b, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		bHold, err := b.SubmitTask(ctx, spec.TaskDescription{
			Name: "b-holder", Cores: 48, Duration: rng.ConstDuration(1000 * time.Hour),
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline = time.Now().Add(10 * time.Second)
		for bHold.State() != states.TaskExecuting {
			if time.Now().After(deadline) {
				t.Fatalf("b-holder stuck in %s", bHold.State())
			}
			time.Sleep(time.Millisecond)
		}
		tm.AddPilot(b)
		return big[0], small[0], b
	}

	t.Run("capacity-fit-ranks-fits-now-first", func(t *testing.T) {
		big, small, b := run(t, "capacity-fit")
		// small drained first: it runs to completion on B's free cores
		// while big queues behind the occupied node.
		select {
		case <-small.Done():
		case <-time.After(15 * time.Second):
			t.Fatalf("small never completed (state %s) — drained behind the blocked big?", small.State())
		}
		if err := small.Err(); err != nil {
			t.Fatal(err)
		}
		if small.Pilot() != b.UID() {
			t.Fatalf("small on %s, want %s", small.Pilot(), b.UID())
		}
		if st := big.State(); st != states.TaskScheduling {
			t.Fatalf("big state = %s, want queued %s", st, states.TaskScheduling)
		}
	})
	t.Run("round-robin-keeps-submission-order", func(t *testing.T) {
		big, small, _ := run(t, "round-robin")
		// big drained first and wedged at the strict head: small stays
		// blocked behind it — the seed drain semantics, untouched.
		select {
		case <-small.Done():
			t.Fatalf("small completed under round-robin drain (err %v) — submission order not preserved?", small.Err())
		case <-time.After(250 * time.Millisecond):
		}
		if st := small.State(); st != states.TaskScheduling {
			t.Fatalf("small state = %s, want queued", st)
		}
		if st := big.State(); st != states.TaskScheduling {
			t.Fatalf("big state = %s, want queued", st)
		}
	})
}

// overflow returns how many tasks wait in tm's session overflow pool.
func overflow(tm *TaskManager) int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.overflow)
}

package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

func newSession(t *testing.T, scale float64) *Session {
	t.Helper()
	s, err := NewSession(SessionConfig{
		Seed:  42,
		Clock: simtime.NewScaled(scale, DefaultOrigin),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// transitionRecorder keeps every transition a pilot reports to its session,
// in the order the pilot's hook runs.
type transitionRecorder struct {
	mu    sync.Mutex
	steps []recordedStep
}

type recordedStep struct {
	entity states.Entity
	uid    string
	states.Record
}

// recordTransitions rebinds p to its session's own hooks with a recorder in
// front of the transition hook: each step is recorded, then handed on, so a
// waiter the session's hook releases finds the step already recorded.
func recordTransitions(s *Session, p *pilot.Pilot) *transitionRecorder {
	r := &transitionRecorder{}
	h := s.pilotHooks(p.UID())
	next := h.Transition
	h.Transition = func(e states.Entity, uid string, from states.State, steps []states.Record) {
		r.mu.Lock()
		for _, st := range steps {
			r.steps = append(r.steps, recordedStep{e, uid, st})
		}
		r.mu.Unlock()
		next(e, uid, from, steps)
	}
	p.Rebind(h)
	return r
}

// of returns the steps recorded for the entity uid, in order.
func (r *transitionRecorder) of(uid string) []recordedStep {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []recordedStep
	for _, st := range r.steps {
		if st.uid == uid {
			out = append(out, st)
		}
	}
	return out
}

func deltaPilotDesc() spec.PilotDescription {
	return spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16}
}

func TestSessionDefaults(t *testing.T) {
	s, err := NewSession(SessionConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.uid == "" || s.Clock() == nil || s.topo == nil || s.Network() == nil {
		t.Fatal("session accessors incomplete")
	}
	if s.topo.Platform("frontier") == nil {
		t.Fatal("default topology missing frontier")
	}
	if v, ok := s.Clock().(*simtime.Virtual); !ok || !v.Now().Equal(DefaultOrigin) {
		t.Fatalf("default clock = %T at %v, want *simtime.Virtual at %v", s.Clock(), s.Clock().Now(), DefaultOrigin)
	}
}

func TestPilotManagerSubmitAndGet(t *testing.T) {
	s := newSession(t, 100000)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.PilotManager().Get(p.UID()); !ok || got != p {
		t.Fatal("Get did not return the pilot")
	}
	if len(s.PilotManager().List()) != 1 {
		t.Fatal("List size wrong")
	}
}

func TestPilotManagerUnknownPlatform(t *testing.T) {
	s := newSession(t, 100000)
	if _, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "mars", Nodes: 1}); err == nil {
		t.Fatal("accepted unknown platform")
	}
}

func TestTaskManagerNoPilots(t *testing.T) {
	s := newSession(t, 100000)
	if _, err := s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		Name: "t", Cores: 1, Duration: rng.ConstDuration(time.Second),
	}); err == nil {
		t.Fatal("Submit without pilots succeeded")
	}
}

func TestEndToEndTaskExecution(t *testing.T) {
	s := newSession(t, 100000)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	tm := s.TaskManager()
	tm.AddPilot(p)
	descs := make([]spec.TaskDescription, 8)
	for i := range descs {
		descs[i] = spec.TaskDescription{Name: "sim", Cores: 8, Duration: rng.ConstDuration(10 * time.Second)}
	}
	tasks, err := tm.Submit(context.Background(), descs...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tm.Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.State() != states.TaskDone {
			t.Fatalf("task %s = %s", task.UID(), task.State())
		}
	}
}

func TestEndToEndServiceInference(t *testing.T) {
	s := newSession(t, 1000)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	sm := s.ServiceManager()
	sm.AddPilot(p)
	inst, err := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, inst.UID()); err != nil {
		t.Fatal(err)
	}
	eps := s.EndpointRegistry().ByModel("llama-8b")
	if len(eps) != 1 {
		t.Fatalf("endpoints = %d", len(eps))
	}
	client, err := s.Dial(platform.Addr("delta", "", "client.0001"), eps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reply, rt, err := client.Infer(ctx, "hypothesize a radiation signature", 64)
	if err != nil {
		t.Fatal(err)
	}
	if reply.OutputTokens < 1 || rt.Total() <= 0 {
		t.Fatalf("reply = %+v rt = %+v", reply, rt)
	}
	if err := sm.Terminate(inst.UID(), true); err != nil {
		t.Fatal(err)
	}
}

func TestServiceManagerRoundRobinAcrossPilots(t *testing.T) {
	s := newSession(t, 100000)
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sm := s.ServiceManager()
	sm.AddPilot(p1)
	sm.AddPilot(p2)
	a, _ := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "a", Cores: 1}, Model: "noop"})
	b, _ := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "b", Cores: 1}, Model: "noop"})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, a.UID(), b.UID()); err != nil {
		t.Fatal(err)
	}
	// one service per pilot
	if n1, n2 := len(p1.Services()), len(p2.Services()); n1 != 1 || n2 != 1 {
		t.Fatalf("distribution = %d/%d, want 1/1", n1, n2)
	}
}

func TestRemoteEndpointRegistration(t *testing.T) {
	s := newSession(t, 100000)
	s.RegisterRemote(proto.Endpoint{ServiceUID: "r3.svc.1", Model: "llama-8b", Address: "r3/r3-node0000/svc.1", Protocol: "msgq"})
	s.RegisterRemote(proto.Endpoint{ServiceUID: "r3.svc.2", Model: "noop", Address: "r3/r3-node0000/svc.2", Protocol: "msgq"})
	reg := s.EndpointRegistry()
	if got := len(reg.ByModel("noop")); got != 1 {
		t.Fatalf("noop remotes = %d, want 1", got)
	}
	eps := reg.ByModel("llama-8b")
	if len(eps) != 1 || eps[0].ServiceUID != "r3.svc.1" || eps[0].Generation != 1 {
		t.Fatalf("llama remotes = %+v", eps)
	}
}

func TestUpdaterPublishesStateTransitions(t *testing.T) {
	s := newSession(t, 100000)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	rec := recordTransitions(s, p)
	tm := s.TaskManager()
	tm.AddPilot(p)
	tasks, _ := tm.Submit(context.Background(), spec.TaskDescription{
		Name: "watched", Cores: 1, Duration: rng.ConstDuration(time.Second),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tm.Wait(ctx, tasks...); err != nil {
		t.Fatal(err)
	}
	steps := rec.of(tasks[0].UID())
	if len(steps) == 0 || steps[len(steps)-1].entity != states.EntityTask || steps[len(steps)-1].State != states.TaskDone {
		t.Fatalf("task transitions %v, want the task's chain ending in DONE", steps)
	}
}

func TestSessionCloseShutsPilots(t *testing.T) {
	s := newSession(t, 100000)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if p.State() != states.PilotDone {
		t.Fatalf("pilot state after session close = %s", p.State())
	}
}

// TestPolicySelectionThreadsToPilots pins the end-to-end policy seam:
// a session-level SchedPolicy reaches every pilot's agent scheduler, a
// bad name fails session construction, and the default stays strict.
func TestPolicySelectionThreadsToPilots(t *testing.T) {
	s, err := NewSession(SessionConfig{
		Seed:        42,
		Clock:       simtime.NewScaled(100000, DefaultOrigin),
		SchedPolicy: "backfill",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Scheduler().Policy().Name(); got != "backfill" {
		t.Fatalf("pilot scheduler policy = %q, want backfill", got)
	}

	def := newSession(t, 100000)
	dp, err := def.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	if got := dp.Scheduler().Policy().Name(); got != "strict" {
		t.Fatalf("default pilot scheduler policy = %q, want strict", got)
	}

	if _, err := NewSession(SessionConfig{Seed: 1, SchedPolicy: "round-robin"}); err == nil {
		t.Fatal("NewSession accepted an unknown scheduling policy")
	}
}

// TestPolicyBackfillKeepsTasksFlowingEndToEnd drives the whole stack:
// on a backfill session, small compute tasks complete while an oversized
// high-priority blocker still sits unplaced at the scheduler head — on a
// strict session they would be stuck behind it. The blocked head is held
// blocked by hour-long holder tasks, so the discriminating assertion is
// that the smalls are DONE while the blocker has not even started. The
// session runs on the auto-advancing virtual clock with the default
// starvation bounds (K=16, T=30 s): the test goroutine holds the clock
// while it submits, so both smalls bypass the head at the instant it
// blocked and finish 2 s of simulated time later, inside both bounds.
func TestPolicyBackfillKeepsTasksFlowingEndToEnd(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	clock.AddRunner()
	defer clock.DoneRunner()
	s, err := NewSession(SessionConfig{Seed: 7, Clock: clock, SchedPolicy: "backfill"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	tm := s.TaskManager()
	tm.AddPilot(p)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Tasks run through the scheduler asynchronously, so sequence on
	// observed task states rather than submission order. The clock stands
	// still meanwhile: this goroutine is registered and never parks.
	waitState := func(task *Task, want states.State) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for task.State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("task %s stuck in %s, want %s", task.UID(), task.State(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Saturate one node dimension so the blocker cannot be granted: the
	// pilot has 4×64 cores; hold 60 of node capacity per node via tasks,
	// then submit a 64-core high-priority blocker that fits no node now.
	holders, err := tm.Submit(ctx,
		spec.TaskDescription{Name: "hold-0", Cores: 60, Duration: rng.ConstDuration(time.Hour)},
		spec.TaskDescription{Name: "hold-1", Cores: 60, Duration: rng.ConstDuration(time.Hour)},
		spec.TaskDescription{Name: "hold-2", Cores: 60, Duration: rng.ConstDuration(time.Hour)},
		spec.TaskDescription{Name: "hold-3", Cores: 60, Duration: rng.ConstDuration(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range holders {
		waitState(h, states.TaskExecuting)
	}
	blockers, err := tm.Submit(ctx, spec.TaskDescription{
		Name: "blocker", Cores: 64, Priority: spec.ServicePriority,
		Duration: rng.ConstDuration(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The blocker must be sitting in the scheduler's wait pool before the
	// smalls are submitted, or there is no head to bypass.
	waitState(blockers[0], states.TaskScheduling)
	smalls, err := tm.Submit(ctx,
		spec.TaskDescription{Name: "small-0", Cores: 2, Duration: rng.ConstDuration(2 * time.Second)},
		spec.TaskDescription{Name: "small-1", Cores: 2, Duration: rng.ConstDuration(2 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(ctx, smalls...); err != nil {
		t.Fatalf("small tasks did not complete behind the blocked head: %v", err)
	}
	for _, task := range smalls {
		if task.State() != states.TaskDone {
			t.Fatalf("task %s = %s", task.UID(), task.State())
		}
	}
	// The discriminator: the blocker must still be waiting for placement
	// (the holders run for a simulated hour). Under strict scheduling the
	// smalls could only have completed after it.
	if st := blockers[0].State(); st == states.TaskDone || st == states.TaskExecuting {
		t.Fatalf("blocker state = %s while smalls finished; backfill did not bypass it", st)
	}
}

// TestHeteroPilotBestFitEndToEnd drives node heterogeneity through the
// whole stack: a session on a mixed-shape platform acquires one pilot
// spanning both shapes, and the pilot's best-fit scheduler packs small
// CPU tasks onto the thin partition so large GPU tasks still fit the
// fat one — while a strict (first-fit) twin session fragments the fat
// partition with the same workload and wedges the second large task.
func TestHeteroPilotBestFitEndToEnd(t *testing.T) {
	fat := platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 256}
	thin := platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
	// ≈36s real at the test scale: far past the assertion window even on
	// a loaded -race/-shuffle CI run, so the holders can never complete
	// and free capacity mid-test (the leaked sleeps die with the binary)
	hold := rng.ConstDuration(1000 * time.Hour)

	waitState := func(task *Task, want states.State) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for task.State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("task %s stuck in %s, want %s", task.UID(), task.State(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// run returns the two large tasks after the 8 small tasks are running.
	run := func(pol string) (*Session, []*Task) {
		mix := platform.NewMixed("campus", []platform.NodeGroup{
			{Count: 2, Spec: fat}, {Count: 4, Spec: thin},
		})
		s, err := NewSession(SessionConfig{
			Seed:        5,
			Clock:       simtime.NewScaled(100000, DefaultOrigin),
			Topology:    platform.NewTopology(mix),
			FastBoot:    true,
			SchedPolicy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "campus", Nodes: 6})
		if err != nil {
			t.Fatal(err)
		}
		if shapes := p.Shapes(); len(shapes) != 2 || shapes[0].Spec != fat || shapes[1].Spec != thin {
			t.Fatalf("pilot shapes = %+v, want fat + thin", shapes)
		}
		tm := s.TaskManager()
		tm.AddPilot(p)
		ctx := context.Background()
		var descs []spec.TaskDescription
		for i := 0; i < 8; i++ { // 8×8 cores: exactly the thin partition's capacity
			descs = append(descs, spec.TaskDescription{Name: "small", Cores: 8, Duration: hold})
		}
		smalls, err := tm.Submit(ctx, descs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range smalls {
			waitState(task, states.TaskExecuting)
		}
		larges, err := tm.Submit(ctx,
			spec.TaskDescription{Name: "large-0", Cores: 64, GPUs: 8, Duration: hold},
			spec.TaskDescription{Name: "large-1", Cores: 64, GPUs: 8, Duration: hold})
		if err != nil {
			t.Fatal(err)
		}
		return s, larges
	}

	// best-fit: smalls packed onto thin nodes, both fat nodes stay whole
	_, larges := run("best-fit")
	waitState(larges[0], states.TaskExecuting)
	waitState(larges[1], states.TaskExecuting)

	// strict/first-fit control: the smalls fragment fat node 0, so only
	// one large can run and the other stays stuck in scheduling. The two
	// larges race each other to the scheduler (per-task goroutines), so
	// which one wins is not deterministic — only that exactly one does.
	_, larges = run("strict")
	var stuck *Task
	deadline := time.Now().Add(10 * time.Second)
	for stuck == nil {
		switch {
		case larges[0].State() == states.TaskExecuting:
			stuck = larges[1]
		case larges[1].State() == states.TaskExecuting:
			stuck = larges[0]
		case time.Now().After(deadline):
			t.Fatalf("no large task started under strict (states %s/%s)",
				larges[0].State(), larges[1].State())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(150 * time.Millisecond)
	if st := stuck.State(); st != states.TaskScheduling {
		t.Fatalf("second large = %s under strict, want stuck in %s (fat partition fragmented)",
			st, states.TaskScheduling)
	}
}

func TestSessionDeterministicUID(t *testing.T) {
	a, _ := NewSession(SessionConfig{Seed: 9, Clock: simtime.NewScaled(1000, DefaultOrigin)})
	defer a.Close()
	b, _ := NewSession(SessionConfig{Seed: 9, Clock: simtime.NewScaled(1000, DefaultOrigin)})
	defer b.Close()
	if a.uid != b.uid {
		t.Fatal("same seed produced different session UIDs")
	}
}

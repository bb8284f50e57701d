package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// newJournaledSession builds a fast journaled session for recovery tests
// and returns it with its journal path. No Cleanup: the tests themselves
// decide whether the session dies by Abandon or Close.
func newJournaledSession(t *testing.T, seed uint64) (*Session, string) {
	t.Helper()
	jp := filepath.Join(t.TempDir(), "session.wal")
	s, err := NewSession(SessionConfig{
		Seed:        seed,
		Clock:       simtime.NewScaled(100000, DefaultOrigin),
		FastBoot:    true,
		JournalPath: jp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, jp
}

// submitAttachedPilot launches a half-platform delta pilot (so two fit)
// and attaches it to both managers.
func submitAttachedPilot(t *testing.T, s *Session) *pilot.Pilot {
	t.Helper()
	p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 128, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.TaskManager().AddPilot(p)
	s.ServiceManager().AddPilot(p)
	return p
}

// TestRecoverReattachesInFlightWork runs on the auto-advancing virtual
// clock, held by the test goroutine: simulated time moves only while it
// parks (WaitReady, Wait), so the hour-long tasks are still running when
// the client dies and Recover runs, however loaded the host.
func TestRecoverReattachesInFlightWork(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	clock.AddRunner()
	defer clock.DoneRunner()
	jp := filepath.Join(t.TempDir(), "session.wal")
	s, err := NewSession(SessionConfig{Seed: 7, Clock: clock, FastBoot: true, JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	submitAttachedPilot(t, s)
	submitAttachedPilot(t, s)

	svc, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	preGen := s.EndpointRegistry().Generation(svc.UID())

	// One batch that finishes before the crash, one that is still running
	// when the client dies.
	short, err := s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		Name: "short", Cores: 1, Duration: rng.ConstDuration(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TaskManager().Wait(ctx, short...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TaskManager().Submit(context.Background(),
		spec.TaskDescription{Name: "long", Cores: 1, Duration: rng.ConstDuration(time.Hour)},
		spec.TaskDescription{Name: "long", Cores: 1, Duration: rng.ConstDuration(time.Hour)},
	); err != nil {
		t.Fatal(err)
	}
	submitted := clock.Now()

	s.Abandon()

	s2, rep, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.uid != s.uid {
		t.Fatalf("recovered UID %s, want %s", s2.uid, s.uid)
	}
	if rep.Incarnation != 2 || s2.Incarnation() != 2 {
		t.Fatalf("incarnation = %d/%d, want 2", rep.Incarnation, s2.Incarnation())
	}
	if len(rep.PilotsAlive) != 2 || len(rep.PilotsLost) != 0 {
		t.Fatalf("pilots alive/lost = %v/%v, want 2/0", rep.PilotsAlive, rep.PilotsLost)
	}
	if len(rep.TasksSettled) != 1 || rep.TasksSettled[0] != short[0].UID() {
		t.Fatalf("TasksSettled = %v, want [%s]", rep.TasksSettled, short[0].UID())
	}
	if len(rep.TasksReattached) != 2 {
		t.Fatalf("TasksReattached = %v, want both long tasks", rep.TasksReattached)
	}
	if len(rep.ServicesReattached) != 1 || rep.ServicesReattached[0] != svc.UID() {
		t.Fatalf("ServicesReattached = %v, want [%s]", rep.ServicesReattached, svc.UID())
	}

	// The settled task is DONE with its journaled identity.
	rshort, ok := findTask(s2, short[0].UID())
	if !ok || rshort.State() != states.TaskDone || rshort.Err() != nil {
		t.Fatalf("short task not recovered as done: %v", rshort)
	}
	// The re-published endpoint ranks strictly newer than any pre-crash
	// copy and resolves live.
	ep, gen, ok := s2.EndpointRegistry().Resolve(svc.UID())
	if !ok || gen <= preGen {
		t.Fatalf("endpoint gen = %d (live=%v), want > %d", gen, ok, preGen)
	}
	if ep.Incarnation != 2 {
		t.Fatalf("endpoint incarnation = %d, want 2", ep.Incarnation)
	}
	// The reattached tasks run to completion on the surviving pilots, an
	// hour after they were submitted.
	if err := s2.TaskManager().Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if ran := clock.Now().Sub(submitted); ran != time.Hour {
		t.Fatalf("reattached tasks done %v after submission, want 1h", ran)
	}
	for _, uid := range rep.TasksReattached {
		rt, ok := findTask(s2, uid)
		if !ok || rt.State() != states.TaskDone {
			t.Fatalf("task %s did not finish after recovery", uid)
		}
	}
}

func findTask(s *Session, uid string) (*Task, bool) {
	for _, t := range s.TaskManager().Tasks() {
		if t.UID() == uid {
			return t, true
		}
	}
	return nil, false
}

func TestRecoverReroutesWorkFromDeadPilot(t *testing.T) {
	s, jp := newJournaledSession(t, 11)
	p1 := submitAttachedPilot(t, s)
	p2 := submitAttachedPilot(t, s)

	// Round-robin places the first submission of each manager on p1.
	svc, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if svc.Pilot() != p1.UID() {
		t.Fatalf("service placed on %s, want %s", svc.Pilot(), p1.UID())
	}
	long, err := s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		Name: "long", Cores: 1, Duration: rng.ConstDuration(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if long[0].Pilot() != p1.UID() {
		t.Fatalf("task placed on %s, want %s", long[0].Pilot(), p1.UID())
	}

	// The client dies; then its pilot dies while the client is down.
	s.Abandon()
	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2, rep, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rep.PilotsAlive) != 1 || rep.PilotsAlive[0] != p2.UID() {
		t.Fatalf("PilotsAlive = %v, want [%s]", rep.PilotsAlive, p2.UID())
	}
	if len(rep.PilotsLost) != 1 || rep.PilotsLost[0] != p1.UID() {
		t.Fatalf("PilotsLost = %v, want [%s]", rep.PilotsLost, p1.UID())
	}
	if len(rep.TasksRerouted) != 1 || rep.TasksRerouted[0] != long[0].UID() {
		t.Fatalf("TasksRerouted = %v, want [%s]", rep.TasksRerouted, long[0].UID())
	}
	if len(rep.ServicesReplaced) != 1 || rep.ServicesReplaced[0] != svc.UID() {
		t.Fatalf("ServicesReplaced = %v, want [%s]", rep.ServicesReplaced, svc.UID())
	}

	// The re-placed service bootstraps on the survivor and re-publishes.
	rsvc, ok := s2.ServiceManager().Get(svc.UID())
	if !ok {
		t.Fatal("re-placed service not managed")
	}
	if err := rsvc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if rsvc.Pilot() != p2.UID() {
		t.Fatalf("re-placed on %s, want %s", rsvc.Pilot(), p2.UID())
	}
	if _, gen, ok := s2.EndpointRegistry().Resolve(svc.UID()); !ok || gen < 2 {
		t.Fatalf("re-publication gen = %d (live=%v), want >= 2", gen, ok)
	}
	// The re-routed task finishes on the survivor.
	if err := s2.TaskManager().Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rt, ok := findTask(s2, long[0].UID())
	if !ok || rt.State() != states.TaskDone || rt.Pilot() != p2.UID() {
		t.Fatalf("re-routed task: state %v on %v, want DONE on %s", rt.State(), rt.Pilot(), p2.UID())
	}
}

func TestRecoverSettlesPinnedWorkOnDeadPilot(t *testing.T) {
	s, jp := newJournaledSession(t, 13)
	p1 := submitAttachedPilot(t, s)
	p2 := submitAttachedPilot(t, s)

	pinned, err := s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		Name: "pinned", Cores: 1, Duration: rng.ConstDuration(time.Hour), Pilot: p1.UID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2, rep, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rep.TasksSettled) != 1 || rep.TasksSettled[0] != pinned[0].UID() {
		t.Fatalf("TasksSettled = %v, want [%s]", rep.TasksSettled, pinned[0].UID())
	}
	rt, ok := findTask(s2, pinned[0].UID())
	if !ok {
		t.Fatal("pinned task not recovered")
	}
	<-rt.Done()
	if !errors.Is(rt.Err(), pilot.ErrPilotStopped) {
		t.Fatalf("pinned task err = %v, want ErrPilotStopped", rt.Err())
	}
	_ = p2
}

func TestRecoverFencesStaleIncarnation(t *testing.T) {
	s, jp := newJournaledSession(t, 17)
	submitAttachedPilot(t, s)
	svc, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	staleEp := svc.Endpoint() // incarnation-1 stamped
	s.Abandon()

	s2, _, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.EndpointRegistry().Fence(); got != 2 {
		t.Fatalf("fence = %d, want 2", got)
	}
	// A zombie publisher from the first incarnation must be rejected...
	if _, err := s2.EndpointRegistry().Publish(staleEp); !errors.Is(err, service.ErrStaleIncarnation) {
		t.Fatalf("stale publish err = %v, want ErrStaleIncarnation", err)
	}
	// ...while the current incarnation publishes fine.
	fresh := staleEp
	fresh.Incarnation = 2
	if _, err := s2.EndpointRegistry().Publish(fresh); err != nil {
		t.Fatalf("current-incarnation publish: %v", err)
	}
}

// TestRecoveredClientGetsItsOwnReply: a client asks the service one
// question, the session dies and recovers, and a new client at the same
// address asks another. Both clients number their requests from 1, so the
// two requests share a request UID; the service executes the second, and
// its client gets the reply to its own question.
func TestRecoveredClientGetsItsOwnReply(t *testing.T) {
	s, jp := newJournaledSession(t, 19)
	submitAttachedPilot(t, s)
	svc, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	addr := platform.Addr("delta", "", "client.0")
	ask := func(s *Session, prompt string, maxTokens int) proto.InferenceReply {
		t.Helper()
		cl, err := s.DialService(addr, svc.UID(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		reply, _, err := cl.Infer(ctx, prompt, maxTokens)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	before := ask(s, "what genes respond to radiation", 64)
	s.Abandon()

	s2, _, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rsvc, _ := s2.ServiceManager().Get(svc.UID())
	if err := rsvc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s2.EndpointRegistry().Resolve(svc.UID()); !ok {
		t.Fatal("service not resolvable after recovery")
	}

	after := ask(s2, "summarize", 3)
	if after.RequestUID != before.RequestUID {
		t.Fatalf("request UIDs %s and %s differ; the test needs them equal", before.RequestUID, after.RequestUID)
	}
	if before.OutputTokens <= 3 {
		t.Fatalf("pre-crash reply: %d output tokens, want more than the limit of 3", before.OutputTokens)
	}
	if after.OutputTokens < 1 || after.OutputTokens > 3 || after.Text == before.Text {
		t.Fatalf("post-recovery reply: %d tokens %q, want its own of at most 3 (pre-crash: %d tokens %q)",
			after.OutputTokens, after.Text, before.OutputTokens, before.Text)
	}
	if got := rsvc.Instance().Processed(); got != 2 {
		t.Fatalf("processed = %d, want 2", got)
	}
}

func TestRecoverTwiceBumpsIncarnation(t *testing.T) {
	s, jp := newJournaledSession(t, 23)
	submitAttachedPilot(t, s)
	s.Abandon()

	s2, rep2, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Incarnation != 2 {
		t.Fatalf("first recovery incarnation = %d, want 2", rep2.Incarnation)
	}
	s2.Abandon()

	s3, rep3, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rep3.Incarnation != 3 || s3.EndpointRegistry().Fence() != 3 {
		t.Fatalf("second recovery incarnation/fence = %d/%d, want 3/3",
			rep3.Incarnation, s3.EndpointRegistry().Fence())
	}
	if s3.uid != s.uid {
		t.Fatalf("identity drifted: %s != %s", s3.uid, s.uid)
	}
}

// TestRecoverTornCrashTwice pins the torn-tail excision: the first
// recovery after a mid-write crash must truncate the half-written record
// before appending incarnation 2's records, or the fragment's length
// prefix swallows them as its payload on the next replay and every later
// recovery fails with ErrChecksum — permanently losing the session.
func TestRecoverTornCrashTwice(t *testing.T) {
	s, jp := newJournaledSession(t, 29)
	submitAttachedPilot(t, s)

	crashed := make(chan struct{})
	jw := s.Journal()
	jw.OnCrash(func() {
		s.Abandon()
		close(crashed)
	})
	var armed atomic.Bool
	jw.SetCrashHook(func(rec journal.Record) journal.CrashMode {
		if armed.Load() && rec.Kind == journal.KindTransition {
			return journal.CrashTorn
		}
		return journal.NoCrash
	})
	armed.Store(true)
	// The trigger task's first transition dies half-written.
	if _, err := s.TaskManager().Submit(context.Background(), spec.TaskDescription{
		Name: "trigger", Cores: 1, Duration: rng.ConstDuration(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("torn crash never fired")
	}

	s2, rep2, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Stats.TornTail {
		t.Fatal("first recovery saw no torn tail")
	}
	// Append incarnation-2 records across the formerly-torn boundary, then
	// die again.
	post, err := s2.TaskManager().Submit(context.Background(), spec.TaskDescription{
		Name: "post", Cores: 1, Duration: rng.ConstDuration(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.Abandon()

	s3, rep3, err := Recover(jp, RecoverConfig{})
	if err != nil {
		t.Fatalf("second recovery after torn crash: %v", err)
	}
	defer s3.Close()
	if rep3.Stats.TornTail {
		t.Fatal("second recovery reported a torn tail after a clean Abandon")
	}
	if rep3.Incarnation != 3 || s3.uid != s.uid {
		t.Fatalf("second recovery incarnation/UID = %d/%s, want 3/%s",
			rep3.Incarnation, s3.uid, s.uid)
	}
	// The incarnation-2 submission survived the boundary.
	if _, ok := findTask(s3, post[0].UID()); !ok {
		t.Fatal("incarnation-2 task lost across the second recovery")
	}
}

func TestRecoverErrorsWithoutJournal(t *testing.T) {
	if _, _, err := Recover(filepath.Join(t.TempDir(), "absent.wal"), RecoverConfig{}); err == nil {
		t.Fatal("recovered from a nonexistent journal")
	}
}

// TestSessionCloseSettlesReplacementRace pins the Close-vs-watcher race:
// a service watcher that observes its pilot dying during session close
// must settle the handle with ErrSessionClosed instead of re-placing the
// service onto a pilot the session is about to tear down.
func TestSessionCloseSettlesReplacementRace(t *testing.T) {
	s := newSession(t, 100000)
	p1, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 128, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 128, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.ServiceManager().AddPilot(p1)
	s.ServiceManager().AddPilot(p2)
	svc, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
		Model:           "llama-8b",
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	s.Close()
	select {
	case <-svc.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("service handle never settled after Close")
	}
	if err := svc.Err(); err != nil && !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("service settled with %v, want nil or ErrSessionClosed", err)
	}
	if svc.Replacements() != 0 {
		t.Fatalf("service was re-placed %d times during Close", svc.Replacements())
	}
}

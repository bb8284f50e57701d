package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pilot"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// newRunner builds a Runner over one pilot per description (by default one
// 256-core, 16-GPU Delta pilot) on a session on the auto-advancing virtual
// clock, without boot and launch overheads, so a stage takes exactly what
// its tasks and hooks take. The test goroutine drives the session, so it is
// registered with the clock for the whole test: time moves only while it
// waits in Run.
func newRunner(t *testing.T, descs ...spec.PilotDescription) (*Runner, *core.Session) {
	t.Helper()
	clock := simtime.NewVirtualAuto(core.DefaultOrigin)
	clock.AddRunner()
	t.Cleanup(clock.DoneRunner)
	sess, err := core.NewSession(core.SessionConfig{Seed: 5, Clock: clock, FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	if len(descs) == 0 {
		descs = []spec.PilotDescription{{Platform: "delta", Cores: 256, GPUs: 16}}
	}
	var pilots []*pilot.Pilot
	for _, d := range descs {
		p, err := sess.PilotManager().Submit(d)
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
	}
	r, err := NewRunner(sess, pilots...)
	if err != nil {
		t.Fatal(err)
	}
	return r, sess
}

// timeline renders each stage's start offset and duration, and the
// pipeline's duration, for exact comparison with the model's values.
func timeline(rep *Report) string {
	var b strings.Builder
	for _, s := range rep.Stages {
		fmt.Fprintf(&b, "%s +%v %v, ", s.Stage, s.Started.Sub(rep.Started), s.Duration())
	}
	fmt.Fprintf(&b, "pipeline %v", rep.Duration())
	return b.String()
}

func simTask(name string, d time.Duration) spec.TaskDescription {
	return spec.TaskDescription{Name: name, Cores: 1, Duration: rng.ConstDuration(d)}
}

func TestValidateDuplicateStage(t *testing.T) {
	p := &Pipeline{Name: "p", Stages: []*Stage{{Name: "a"}, {Name: "a"}}}
	if _, err := p.dependents(); err == nil {
		t.Fatal("accepted duplicate stage names")
	}
}

func TestValidateUnknownDependency(t *testing.T) {
	p := &Pipeline{Name: "p", Stages: []*Stage{{Name: "a", After: []string{"ghost"}}}}
	if _, err := p.dependents(); err == nil {
		t.Fatal("accepted unknown dependency")
	}
}

func TestValidateCycle(t *testing.T) {
	p := &Pipeline{Name: "p", Stages: []*Stage{
		{Name: "a", After: []string{"b"}},
		{Name: "b", After: []string{"a"}},
	}}
	if _, err := p.dependents(); err == nil {
		t.Fatal("accepted cycle")
	}
}

func TestValidateUnnamed(t *testing.T) {
	if _, err := (&Pipeline{}).dependents(); err == nil {
		t.Fatal("accepted unnamed pipeline")
	}
	if _, err := (&Pipeline{Name: "p", Stages: []*Stage{{}}}).dependents(); err == nil {
		t.Fatal("accepted unnamed stage")
	}
}

func TestLinearPipelineOrdering(t *testing.T) {
	r, _ := newRunner(t)
	var order []string
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	mark := func(name string) Hook {
		return func(ctx context.Context, sess *core.Session) error {
			<-mu
			order = append(order, name)
			mu <- struct{}{}
			return nil
		}
	}
	p := &Pipeline{Name: "linear", Stages: []*Stage{
		{Name: "s1", Tasks: []spec.TaskDescription{simTask("t1", time.Second)}, Post: mark("s1")},
		{Name: "s2", After: []string{"s1"}, Tasks: []spec.TaskDescription{simTask("t2", time.Second)}, Post: mark("s2")},
		{Name: "s3", After: []string{"s2"}, Post: mark("s3")},
	}}
	ctx := context.Background()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "s1" || order[1] != "s2" || order[2] != "s3" {
		t.Fatalf("order = %v", order)
	}
	if len(rep.Stages) != 3 {
		t.Fatalf("stage reports = %d", len(rep.Stages))
	}
	if s1, ok := rep.StageReport("s1"); !ok || s1.Tasks != 1 {
		t.Fatalf("s1 report = %+v", s1)
	}
	// each stage starts the instant its dependency finished
	if got, want := timeline(rep), "s1 +0s 1s, s2 +1s 1s, s3 +2s 0s, pipeline 2s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
}

func TestIndependentStagesRunConcurrently(t *testing.T) {
	// Two independent stages with 60 s tasks overlap exactly: each runs from
	// the pipeline's start, and the pipeline takes what one stage takes.
	r, _ := newRunner(t)
	p := &Pipeline{Name: "par", Stages: []*Stage{
		{Name: "a", Tasks: []spec.TaskDescription{simTask("ta", 60*time.Second)}},
		{Name: "b", Tasks: []spec.TaskDescription{simTask("tb", 60*time.Second)}},
	}}
	rep, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := timeline(rep), "a +0s 1m0s, b +0s 1m0s, pipeline 1m0s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
}

func TestFailurePropagatesToDependents(t *testing.T) {
	r, _ := newRunner(t)
	boom := errors.New("boom")
	var ranC atomic.Bool
	p := &Pipeline{Name: "fail", Stages: []*Stage{
		{Name: "a", Tasks: []spec.TaskDescription{{
			Name: "bad", Cores: 1, Func: func(ctx context.Context) error { return boom },
		}}},
		{Name: "b", After: []string{"a"}, Post: func(ctx context.Context, s *core.Session) error {
			t.Error("dependent stage ran despite failed dependency")
			return nil
		}},
		{Name: "c", Post: func(ctx context.Context, s *core.Session) error {
			ranC.Store(true)
			return nil
		}},
	}}
	ctx := context.Background()
	_, err := r.Run(ctx, p)
	if err == nil {
		t.Fatal("pipeline reported success despite failure")
	}
	if !ranC.Load() {
		t.Fatal("independent branch did not run")
	}
}

func TestStageWithServices(t *testing.T) {
	r, sess := newRunner(t)
	var sawEndpoint atomic.Bool
	p := &Pipeline{Name: "svc", Stages: []*Stage{
		{
			Name: "serve",
			Services: []spec.ServiceDescription{{
				TaskDescription: spec.TaskDescription{Name: "noop-svc", Cores: 1},
				Model:           "noop",
			}},
			Post: func(ctx context.Context, s *core.Session) error {
				if len(s.EndpointRegistry().ByModel("noop")) == 1 {
					sawEndpoint.Store(true)
				}
				return nil
			},
		},
	}}
	ctx := context.Background()
	if _, err := r.Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	if !sawEndpoint.Load() {
		t.Fatal("service endpoint not visible during stage")
	}
	// the services the pipeline's stages started are terminated at its end
	if got := len(sess.EndpointRegistry().ByModel("noop")); got != 0 {
		t.Fatalf("%d endpoints left after pipeline end", got)
	}
}

// TestSessionServiceOutlivesPipeline: a service the session started before a
// pipeline is not the pipeline's to stop. It survives the pipeline's end,
// which terminates the stage-started service beside it, and a second
// pipeline consumes it.
func TestSessionServiceOutlivesPipeline(t *testing.T) {
	r, sess := newRunner(t)
	ctx := context.Background()
	kept, err := sess.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "kept", Cores: 1},
		Model:           "noop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kept.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Name: "serve", Stages: []*Stage{
		{
			Name: "serve",
			Services: []spec.ServiceDescription{{
				TaskDescription: spec.TaskDescription{Name: "staged", Cores: 1},
				Model:           "noop",
			}},
		},
	}}
	if _, err := r.Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	eps := sess.EndpointRegistry().ByModel("noop")
	if len(eps) != 1 || eps[0].ServiceUID != kept.UID() {
		t.Fatalf("endpoints after pipeline end = %+v, want only the session's %s", eps, kept.UID())
	}
	// a second pipeline consumes the session's service without starting one
	consume := &Pipeline{Name: "consume", Stages: []*Stage{
		{Name: "use", Post: func(ctx context.Context, s *core.Session) error {
			cl, err := s.Dial("delta//keeper-client", eps[0])
			if err != nil {
				return err
			}
			defer cl.Close()
			_, _, err = cl.Infer(ctx, "ping", 0)
			return err
		}},
	}}
	if _, err := r.Run(ctx, consume); err != nil {
		t.Fatal(err)
	}
}

func TestPreHookGate(t *testing.T) {
	r, _ := newRunner(t)
	gateErr := errors.New("gate closed")
	p := &Pipeline{Name: "gated", Stages: []*Stage{
		{Name: "a", Pre: func(ctx context.Context, s *core.Session) error { return gateErr }},
	}}
	ctx := context.Background()
	_, err := r.Run(ctx, p)
	if !errors.Is(err, gateErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil); err == nil {
		t.Fatal("NewRunner accepted nil session")
	}
}

func TestDiamondDependency(t *testing.T) {
	r, _ := newRunner(t)
	var joined atomic.Int32
	p := &Pipeline{Name: "diamond", Stages: []*Stage{
		{Name: "root"},
		{Name: "left", After: []string{"root"}, Tasks: []spec.TaskDescription{simTask("l", time.Second)}},
		{Name: "right", After: []string{"root"}, Tasks: []spec.TaskDescription{simTask("r", 3*time.Second)}},
		{Name: "join", After: []string{"left", "right"}, Post: func(ctx context.Context, s *core.Session) error {
			joined.Add(1)
			return nil
		}},
	}}
	ctx := context.Background()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Load() != 1 {
		t.Fatal("join stage did not run exactly once")
	}
	// join starts the instant the later branch finished
	if got, want := timeline(rep), "root +0s 0s, left +0s 1s, right +0s 3s, join +3s 0s, pipeline 3s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
}

// TestStagePilotRoutingHint pins the workflow-level routing hint: a
// stage naming a pilot sends every one of its tasks there, bypassing the
// session router, while an unhinted stage follows the router's choice.
func TestStagePilotRoutingHint(t *testing.T) {
	node := spec.PilotDescription{Platform: "delta", Nodes: 2}
	r, sess := newRunner(t, node, node)
	// either pilot will do: the hint, not the router, must place every task
	p2 := sess.PilotManager().List()[1]
	pl := &Pipeline{Name: "hinted", Stages: []*Stage{{
		Name:  "pinned",
		Pilot: p2.UID(),
		Tasks: []spec.TaskDescription{
			simTask("a", time.Second), simTask("b", time.Second), simTask("c", time.Second),
		},
	}}}
	ctx := context.Background()
	if _, err := r.Run(ctx, pl); err != nil {
		t.Fatal(err)
	}
	for _, task := range sess.TaskManager().Tasks() {
		if task.Pilot() != p2.UID() {
			t.Fatalf("task %s ran on %s, want hinted pilot %s", task.UID(), task.Pilot(), p2.UID())
		}
	}
	// The hint must not mutate the caller's stage descriptions.
	for _, d := range pl.Stages[0].Tasks {
		if d.Pilot != "" {
			t.Fatalf("stage description mutated: Pilot = %q", d.Pilot)
		}
	}
}

// TestServiceReadinessStampExactRace: a stage waits for its llama-8b service
// while an unrelated goroutine sleeps an hour. The readiness wait parks the
// stage and the service's activation hands it its wake token, so the Post hook
// reads the instant the service turned ACTIVE, never the sleeper's hour.
func TestServiceReadinessStampExactRace(t *testing.T) {
	r, sess := newRunner(t)
	clock := sess.Clock().(*simtime.Virtual)
	clock.Go(func() { clock.Sleep(time.Hour) })
	var ready time.Duration
	p := &Pipeline{Name: "serve", Stages: []*Stage{{
		Name: "llm",
		Services: []spec.ServiceDescription{{
			TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
			Model:           "llama-8b",
		}},
		Post: func(context.Context, *core.Session) error {
			ready = clock.Now().Sub(core.DefaultOrigin)
			return nil
		},
	}}}
	if _, err := r.Run(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if want := 27909657801 * time.Nanosecond; ready != want {
		t.Fatalf("Post hook ran at %v, want the service's ACTIVE at %v", ready, want)
	}
}

// TestPreHookChannelWaitReplays runs B after A, with B's Pre hook parked on
// a simtime.Handoff that a clock-registered goroutine sends on 5 s after A
// ends. The hook waits through the clock as Run's doc asks, and the sender
// hands it its runner token before the wake, so every stamp is the model's
// exact value while an hour-long sleeper is pending.
func TestPreHookChannelWaitReplays(t *testing.T) {
	r, sess := newRunner(t)
	clock := sess.Clock().(*simtime.Virtual)
	// an unrelated sleeper: a wait whose waker hands back no runner token
	// lets the clock jump to it
	clock.Go(func() { clock.Sleep(time.Hour) })
	var open simtime.Handoff[struct{}]
	open.Arm(clock)
	p := &Pipeline{Name: "gated", Stages: []*Stage{
		{Name: "a", Tasks: []spec.TaskDescription{simTask("ta", 10*time.Second)},
			Post: func(ctx context.Context, s *core.Session) error {
				clock.Go(func() {
					clock.Sleep(5 * time.Second)
					open.Send(struct{}{})
				})
				return nil
			}},
		{Name: "b", After: []string{"a"}, Tasks: []spec.TaskDescription{simTask("tb", 20*time.Second)},
			Pre: func(ctx context.Context, s *core.Session) error {
				_, err := open.Recv(ctx)
				return err
			}},
	}}
	rep, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// b starts when a finished, then waits 5 s for the gate
	if got, want := timeline(rep), "a +0s 10s, b +10s 25s, pipeline 35s"; got != want {
		t.Fatalf("timeline %s, want %s", got, want)
	}
}

package workflow

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
)

func newRunner(t *testing.T) (*Runner, *core.Session) {
	return newRunnerScale(t, 100000)
}

func newRunnerScale(t *testing.T, scale float64) (*Runner, *core.Session) {
	t.Helper()
	sess, err := core.NewSession(core.SessionConfig{
		Seed:  5,
		Clock: simtime.NewScaled(scale, core.DefaultOrigin),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sess, p)
	if err != nil {
		t.Fatal(err)
	}
	return r, sess
}

func simTask(name string, d time.Duration) spec.TaskDescription {
	return spec.TaskDescription{Name: name, Cores: 1, Duration: rng.ConstDuration(d)}
}

func TestValidateDuplicateStage(t *testing.T) {
	p := &Pipeline{Name: "p", Stages: []*Stage{{Name: "a"}, {Name: "a"}}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted duplicate stage names")
	}
}

func TestValidateUnknownDependency(t *testing.T) {
	p := &Pipeline{Name: "p", Stages: []*Stage{{Name: "a", After: []string{"ghost"}}}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted unknown dependency")
	}
}

func TestValidateCycle(t *testing.T) {
	p := &Pipeline{Name: "p", Stages: []*Stage{
		{Name: "a", After: []string{"b"}},
		{Name: "b", After: []string{"a"}},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted cycle")
	}
}

func TestValidateUnnamed(t *testing.T) {
	if err := (&Pipeline{}).Validate(); err == nil {
		t.Fatal("accepted unnamed pipeline")
	}
	if err := (&Pipeline{Name: "p", Stages: []*Stage{{}}}).Validate(); err == nil {
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
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
}

func TestIndependentStagesRunConcurrently(t *testing.T) {
	// Two independent stages with 60s tasks: pipeline wall time on the sim
	// clock must be well under the ~120s a serial execution would need.
	// Moderate scale keeps real orchestration overhead (~ms) from
	// inflating into significant simulated time.
	r, sess := newRunnerScale(t, 1000)
	p := &Pipeline{Name: "par", Stages: []*Stage{
		{Name: "a", Tasks: []spec.TaskDescription{simTask("ta", 60*time.Second)}},
		{Name: "b", Tasks: []spec.TaskDescription{simTask("tb", 60*time.Second)}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	_ = sess
	if d := rep.Duration(); d > 100*time.Second {
		t.Fatalf("independent stages took %v sim, want ≈ parallel (<100s)", d)
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := r.Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	if !sawEndpoint.Load() {
		t.Fatal("service endpoint not visible during stage")
	}
	// non-persistent services are terminated at pipeline end
	if got := len(sess.EndpointRegistry().ByModel("noop")); got != 0 {
		t.Fatalf("%d endpoints left after pipeline end", got)
	}
}

func TestKeepServicesSurvivePipeline(t *testing.T) {
	r, sess := newRunner(t)
	p := &Pipeline{Name: "keep", Stages: []*Stage{
		{
			Name:         "serve",
			KeepServices: true,
			Services: []spec.ServiceDescription{{
				TaskDescription: spec.TaskDescription{Name: "kept", Cores: 1},
				Model:           "noop",
			}},
		},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := r.Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	eps := sess.EndpointRegistry().ByModel("noop")
	if len(eps) != 1 {
		t.Fatalf("kept service endpoints = %d, want 1", len(eps))
	}
	// a second pipeline can consume the kept service without starting one
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
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
		{Name: "right", After: []string{"root"}, Tasks: []spec.TaskDescription{simTask("r", time.Second)}},
		{Name: "join", After: []string{"left", "right"}, Post: func(ctx context.Context, s *core.Session) error {
			joined.Add(1)
			return nil
		}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := r.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Load() != 1 {
		t.Fatal("join stage did not run exactly once")
	}
	// join must start after both branches finished
	l, _ := rep.StageReport("left")
	rt, _ := rep.StageReport("right")
	j, _ := rep.StageReport("join")
	if j.Started.Before(l.Finished) || j.Started.Before(rt.Finished) {
		t.Fatal("join started before branches finished")
	}
}

// TestStagePilotRoutingHint pins the workflow-level routing hint: a
// stage naming a pilot sends every one of its tasks there, bypassing the
// session router, while an unhinted stage follows the router's choice.
func TestStagePilotRoutingHint(t *testing.T) {
	sess, err := core.NewSession(core.SessionConfig{
		Seed:  5,
		Clock: simtime.NewScaled(100000, core.DefaultOrigin),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	p1, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sess, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Pipeline{Name: "hinted", Stages: []*Stage{{
		Name:  "pinned",
		Pilot: p2.UID(),
		Tasks: []spec.TaskDescription{
			simTask("a", time.Second), simTask("b", time.Second), simTask("c", time.Second),
		},
	}}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
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

package executor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

func newExec(scale float64) (*Executor, simtime.Clock) {
	clock := simtime.NewScaled(scale, origin)
	launch := platform.LaunchModel{
		Base:       rng.ConstDuration(2 * time.Second),
		Saturation: 160,
		PenaltyExp: 1.6,
	}
	return New(clock, rng.New(1), launch), clock
}

func TestLaunchBaseline(t *testing.T) {
	e, _ := newExec(100000)
	d := e.Launch("task.0001")
	if d != 2*time.Second {
		t.Fatalf("launch = %v, want 2s base", d)
	}
}

// TestLaunchConcurrencyPenalty: 200 launches registered with the virtual
// clock before time can move all sleep their base at once, so every one of them
// sees the burst's peak of 200 past the saturation of 160 and pays the
// model's penalty for it.
func TestLaunchConcurrencyPenalty(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	launch := platform.LaunchModel{
		Base:       rng.ConstDuration(2 * time.Second),
		Saturation: 160,
		PenaltyExp: 1.6,
	}
	e := New(clock, rng.New(1), launch)
	const n = 200
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	wg.Add(n)
	clock.AddRunner() // the spawner holds the clock until every launch is in
	for i := range durs {
		clock.Go(func() {
			defer wg.Done()
			durs[i] = e.Launch("svc")
		})
	}
	clock.DoneRunner()
	wg.Wait()
	want := 2*time.Second + launch.Penalty(n)
	for i, d := range durs {
		if d != want {
			t.Fatalf("launch %d took %v, want %v (base plus the penalty at %d)", i, d, want, n)
		}
	}
	if e.launching.Load() != 0 {
		t.Fatalf("Launching = %d after completion", e.launching.Load())
	}
}

func TestRunPayloadDuration(t *testing.T) {
	e, _ := newExec(100000)
	d := spec.TaskDescription{UID: "t1", Duration: rng.ConstDuration(5 * time.Second)}
	elapsed, err := e.RunPayload(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 4*time.Second {
		t.Fatalf("payload elapsed %v, want ≈5s sim", elapsed)
	}
}

func TestRunPayloadFunc(t *testing.T) {
	e, _ := newExec(100000)
	ran := false
	d := spec.TaskDescription{UID: "t2", Func: func(ctx context.Context) error {
		ran = true
		return nil
	}}
	if _, err := e.RunPayload(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Func payload did not run")
	}
}

func TestRunPayloadDurationPlusFunc(t *testing.T) {
	// a task carrying both sleeps the modelled duration and then runs the
	// function payload
	e, _ := newExec(100000)
	ran := false
	d := spec.TaskDescription{
		UID:      "both",
		Duration: rng.ConstDuration(5 * time.Second),
		Func:     func(ctx context.Context) error { ran = true; return nil },
	}
	elapsed, err := e.RunPayload(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Func did not run")
	}
	if elapsed < 4*time.Second {
		t.Fatalf("elapsed %v, want ≈5s modelled time", elapsed)
	}
}

func TestRunPayloadFuncError(t *testing.T) {
	e, _ := newExec(100000)
	boom := errors.New("boom")
	d := spec.TaskDescription{UID: "t3", Func: func(ctx context.Context) error { return boom }}
	_, err := e.RunPayload(context.Background(), d)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunPayloadCancellation(t *testing.T) {
	e, _ := newExec(1) // real time so the sleep genuinely blocks
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		d := spec.TaskDescription{UID: "t4", Duration: rng.ConstDuration(time.Hour)}
		_, err := e.RunPayload(ctx, d)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled payload did not return")
	}
}

func TestExecuteReleasesAllocation(t *testing.T) {
	e, _ := newExec(100000)
	p := platform.New("test", 1, platform.NodeSpec{Cores: 4, GPUs: 0, MemGB: 8})
	placedCh := make(chan scheduler.Placement, 4)
	sched := scheduler.New(p.Nodes(), func(pl scheduler.Placement) { placedCh <- pl })
	defer sched.Close()
	if err := sched.Submit(scheduler.Request{UID: "t5", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	pl := <-placedCh
	d := spec.TaskDescription{UID: "t5", Duration: rng.ConstDuration(time.Second)}
	res := e.Execute(context.Background(), sched, pl, d)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.LaunchTime <= 0 || res.ExecTime <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if p.Nodes()[0].FreeCores() != 4 {
		t.Fatal("allocation not released after Execute")
	}
}

// TestLaunchZeroModelDerivesNothing: a launch model with nothing to sample (a
// fast-boot session's) costs a launch no stream and no name for one: nothing is
// allocated. And a launch that does sample derives its stream without advancing
// the executor's, so leaving the derivation out moves no other stream.
func TestLaunchZeroModelDerivesNothing(t *testing.T) {
	e := New(simtime.NewScaled(1e6, origin), rng.New(1), platform.LaunchModel{})
	if allocs := testing.AllocsPerRun(100, func() {
		if d := e.Launch("task.0001"); d != 0 {
			t.Fatalf("zero launch model took %v", d)
		}
	}); allocs != 0 {
		t.Fatalf("a launch on the zero model allocates %.1f objects, want none", allocs)
	}
	sampled, _ := newExec(1e6)
	for i := 0; i < 3; i++ {
		sampled.Launch("task.0001")
	}
	if got, want := sampled.src.Uint64(), rng.New(1).Uint64(); got != want {
		t.Fatalf("three launches moved the executor's stream: next draw %d, want %d", got, want)
	}
}

package pilot

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// heldNode launches a one-node delta pilot (64 cores) and fills the node with
// a holder task that blocks in its payload until the returned release runs:
// whatever is submitted next queues behind it.
func heldNode(t *testing.T) (p *Pilot, holder *Task, release func()) {
	t.Helper()
	p, _ = newPilot(t, 100000, spec.PilotDescription{Platform: "delta", Nodes: 1})
	started, gate := make(chan struct{}), make(chan struct{})
	holder, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "holder", Cores: 64,
		Func: func(context.Context) error { close(started); <-gate; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return p, holder, release
}

func waitTasks(t *testing.T, p *Pilot, uids ...string) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.WaitTasks(ctx, uids...)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("tasks did not settle: %v", err)
	}
	return err
}

// freeCores is what the agent scheduler has to give on its fullest node.
func freeCores(p *Pilot) int { return p.Snapshot().MaxFreeCores }

// TestTaskWaitingForGrantHoldsNoGoroutine: a task queued behind a full node
// is an entry in the router's table, not a parked goroutine. A thousand of
// them add a handful of goroutines (they added a thousand while the task's
// goroutine started at submission), and all are in the wait pool, acknowledged,
// when their SubmitTask returns.
func TestTaskWaitingForGrantHoldsNoGoroutine(t *testing.T) {
	const n, slack = 1000, 8
	p, _, release := heldNode(t)
	base := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "queued", Cores: 1,
			Func: func(context.Context) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-task.Enqueued():
		default:
			t.Fatalf("task %s not enqueued when SubmitTask returned", task.UID())
		}
	}
	if held := runtime.NumGoroutine() - base; held > slack {
		t.Errorf("%d tasks waiting for a grant hold %d goroutines, budget %d", n, held, slack)
	}
	if sn := p.Snapshot(); sn.Waiting != n {
		t.Errorf("wait pool holds %d requests when the last SubmitTask returned, want %d", sn.Waiting, n)
	}
	release()
	if err := waitTasks(t, p); err != nil {
		t.Fatal(err)
	}
}

// TestTaskTransitionsReportedInChains: the states a task passes with nothing
// to wait for in between reach the session's hook in one call — three before
// the agent scheduler, two after the payload — and one at a time around
// staging.
func TestTaskTransitionsReportedInChains(t *testing.T) {
	stage := []spec.StagingDirective{{Source: "delta:/raw/a", Target: "delta:/sandbox/a", Bytes: 1 << 10, Mode: spec.StageCopy}}
	for _, tc := range []struct {
		name    string
		in, out []spec.StagingDirective
		want    [][]states.State
	}{
		{"plain", nil, nil, [][]states.State{
			{states.TaskTmgrScheduling, states.TaskStagingInput, states.TaskScheduling},
			{states.TaskExecuting},
			{states.TaskStagingOutput, states.TaskDone}}},
		{"staged", stage, stage, [][]states.State{
			{states.TaskTmgrScheduling, states.TaskStagingInput},
			{states.TaskScheduling},
			{states.TaskExecuting},
			{states.TaskStagingOutput},
			{states.TaskDone}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var got [][]states.State
			p, _ := newHookedPilot(t, 100000, deltaPilot(), Hooks{TaskState: func(_ string, from states.State, steps []states.Record) {
				mu.Lock()
				defer mu.Unlock()
				if len(got) == 0 && from != states.TaskNew {
					t.Errorf("first chain leaves %s, want NEW", from)
				}
				var chain []states.State
				for _, s := range steps {
					chain = append(chain, s.State)
				}
				got = append(got, chain)
			}})
			task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "chains", Cores: 1,
				Func: func(context.Context) error { return nil }, InputStaging: tc.in, OutputStaging: tc.out})
			if err != nil {
				t.Fatal(err)
			}
			if err := waitTasks(t, p, task.UID()); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("chains reported: %v, want %v", got, tc.want)
			}
		})
	}
}

// TestEnqueuedAfterInputStaging: a task with input staging is the one with
// something to wait for before the scheduler. Its SubmitTask returns while it
// stages, on a goroutine of its own, and Enqueued closes once the staging is
// over and the request is in the wait pool. The test goroutine holds the
// clock until it sleeps past the staging.
func TestEnqueuedAfterInputStaging(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	clock.AddRunner()
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	defer net.Close()
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"),
		BootTime: rng.ConstDuration(0), LaunchModel: &platform.LaunchModel{}}, deltaPilot())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown() //nolint:errcheck
	task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "staged", Cores: 1,
		Func: func(context.Context) error { return nil },
		InputStaging: []spec.StagingDirective{
			{Source: "delta:/raw/a", Target: "delta:/sandbox/a", Bytes: 1 << 20, Mode: spec.StageCopy},
		}})
	if err != nil {
		t.Fatal(err)
	}
	clock.Settle() // the staging is asleep on the clock
	select {
	case <-task.Enqueued():
		t.Fatal("Enqueued closed while the task stages its input")
	default:
	}
	if got := task.State(); got != states.TaskStagingInput || !clock.Now().Equal(origin) {
		t.Fatalf("state while staging = %s at %v, want %s at origin", got, clock.Now(), states.TaskStagingInput)
	}
	clock.Sleep(time.Hour)
	clock.DoneRunner()
	select {
	case <-task.Enqueued():
	case <-time.After(10 * time.Second):
		t.Fatal("Enqueued still open after the staging")
	}
	if err := waitTasks(t, p, task.UID()); err != nil {
		t.Fatal(err)
	}
}

// TestPreGrantFailureFinalAtSubmit: a task whose scheduler closed under it
// fails before its grant, on the submitter: it is final, acknowledged and
// settled when SubmitTask returns, and a completion hook registered then
// fires once, at once.
func TestPreGrantFailureFinalAtSubmit(t *testing.T) {
	p, _ := newPilot(t, 100000, deltaPilot())
	p.sched.Close()
	base := runtime.NumGoroutine()
	task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "late", Cores: 1,
		Func: func(context.Context) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if got := task.State(); got != states.TaskFailed || !errors.Is(task.Result().Err, ErrPilotStopped) {
		t.Fatalf("task when SubmitTask returned: %s, err %v, want FAILED with ErrPilotStopped", got, task.Result().Err)
	}
	if held := runtime.NumGoroutine() - base; held > 0 {
		t.Errorf("a task that failed before its grant left %d goroutines", held)
	}
	select {
	case <-task.Enqueued():
	default:
		t.Fatal("Enqueued open on a settled task")
	}
	fired := 0
	task.OnDone(func() { fired++ })
	if fired != 1 {
		t.Fatalf("hook on a task final at submission fired %d times before OnDone returned", fired)
	}
	if err := waitTasks(t, p, task.UID()); !errors.Is(err, ErrPilotStopped) {
		t.Fatalf("WaitTasks = %v, want ErrPilotStopped", err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times", fired)
	}
	if p.router.Cancel(task.UID()) {
		t.Fatal("the failed task left its continuation in the router's table")
	}
}

// TestSubmitVsShutdownSingleWinnerRace: 64 SubmitTask calls race one Shutdown.
// Every task the pilot accepted ends — DONE if its grant came first, failed
// with ErrPilotStopped if the drain or its own look at the stop signal did —
// its completion hook runs once, and none is left in AGENT_SCHEDULING on a
// closed wait pool.
func TestSubmitVsShutdownSingleWinnerRace(t *testing.T) {
	const n = 64
	p, _, release := heldNode(t)
	var wg sync.WaitGroup
	tasks := make([]*Task, n)
	var fired [n]int32
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "racer", Cores: 1,
				Func: func(context.Context) error { return nil }})
			if err != nil {
				if !errors.Is(err, ErrNotActive) {
					t.Errorf("SubmitTask: %v", err)
				}
				return
			}
			tasks[i] = task
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		runtime.Gosched() // let some submitters in first
		if err := p.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	release()
	for i, task := range tasks {
		if task == nil {
			continue
		}
		task.OnDone(func() { fired[i]++ })
		err := waitTasks(t, p, task.UID())
		switch task.State() {
		case states.TaskDone:
		case states.TaskFailed:
			if !errors.Is(err, ErrPilotStopped) {
				t.Errorf("task %s failed with %v, want ErrPilotStopped", task.UID(), err)
			}
		default:
			t.Errorf("task %s left in %s", task.UID(), task.State())
		}
		if fired[i] != 1 {
			t.Errorf("task %s: completion hook ran %d times", task.UID(), fired[i])
		}
		if p.router.Cancel(task.UID()) {
			t.Errorf("task %s settled with its continuation still registered", task.UID())
		}
	}
}

// TestContextCancelAroundGrant: a context cancelled while the task waits for
// its grant fails it with the context's error, without a goroutine having
// watched for it, and the request it left in the wait pool gives its grant
// straight back; one cancelled after the grant reaches the payload, whose
// placement is released when it returns. Either way the node ends up free.
func TestContextCancelAroundGrant(t *testing.T) {
	t.Run("before", func(t *testing.T) {
		p, holder, release := heldNode(t)
		ctx, cancel := context.WithCancel(context.Background())
		task, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "cancelled", Cores: 64,
			Func: func(context.Context) error { t.Error("the cancelled task ran"); return nil }})
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := waitTasks(t, p, task.UID()); !errors.Is(err, context.Canceled) {
			t.Fatalf("WaitTasks = %v, want context.Canceled", err)
		}
		if got := task.State(); got != states.TaskFailed {
			t.Fatalf("state = %s", got)
		}
		release()
		if err := waitTasks(t, p, holder.UID()); err != nil {
			t.Fatal(err)
		}
		// The holder's release grants the orphaned request, which Route hands
		// back at once.
		for deadline := time.Now().Add(10 * time.Second); freeCores(p) != 64 || p.Snapshot().Waiting != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("capacity not back: %+v", p.Snapshot())
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("already-done", func(t *testing.T) {
		p, _, _ := heldNode(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		task, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "stillborn", Cores: 1,
			Func: func(context.Context) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		if err := waitTasks(t, p, task.UID()); !errors.Is(err, context.Canceled) {
			t.Fatalf("WaitTasks = %v, want context.Canceled", err)
		}
	})
	t.Run("after", func(t *testing.T) {
		p, _ := newPilot(t, 100000, spec.PilotDescription{Platform: "delta", Nodes: 1})
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		task, err := p.SubmitTask(ctx, spec.TaskDescription{Name: "running", Cores: 64,
			Func: func(ctx context.Context) error { close(started); <-ctx.Done(); return ctx.Err() }})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		cancel()
		if err := waitTasks(t, p, task.UID()); !errors.Is(err, context.Canceled) {
			t.Fatalf("WaitTasks = %v, want context.Canceled", err)
		}
		if got := freeCores(p); got != 64 {
			t.Fatalf("%d cores free after the cancelled task settled, want 64", got)
		}
	})
}

// TestTaskChannelsAskedBeforeDuringAndAfter: Enqueued and the channel WaitTasks
// waits on are made for whoever asks before the event, and everybody sees the
// close: asked before it, while it happens (64 askers racing it), and after,
// when both are the one closed channel every fired latch shares.
func TestTaskChannelsAskedBeforeDuringAndAfter(t *testing.T) {
	var fired simtime.Latch
	fired.Fire()
	shared := fired.Done()
	settledChan := func(t *Task) <-chan struct{} {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.done.Done()
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	for _, ev := range []struct {
		name string
		ask  func(*Task) <-chan struct{}
		fire func(*Task)
	}{
		{"enqueued", (*Task).Enqueued, (*Task).markEnqueued},
		{"settled", settledChan, (*Task).settle},
	} {
		t.Run(ev.name, func(t *testing.T) {
			before := &Task{}
			ch := ev.ask(before)
			if closed(ch) {
				t.Fatal("closed before the event")
			}
			ev.fire(before)
			if !closed(ch) || ev.ask(before) != ch {
				t.Fatal("the event did not close the channel handed out before it")
			}
			after := &Task{}
			ev.fire(after)
			if ev.ask(after) != shared {
				t.Fatal("a task nobody asked before the event has a channel of its own")
			}
			for round := 0; round < 50; round++ {
				task := &Task{}
				var wg sync.WaitGroup
				start := make(chan struct{})
				for i := 0; i < 64; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						select {
						case <-ev.ask(task):
						case <-time.After(10 * time.Second):
							t.Error("an asker racing the event never saw the close")
						}
					}()
				}
				close(start)
				ev.fire(task)
				wg.Wait()
			}
		})
	}
	// Through the pilot: a task that ran to its end with nobody asking.
	p, _ := newPilot(t, 100000, spec.PilotDescription{Platform: "delta", Nodes: 1})
	task, err := p.SubmitTask(context.Background(), spec.TaskDescription{Name: "unasked", Cores: 1,
		Func: func(context.Context) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	settled := make(chan struct{})
	task.OnDone(func() { close(settled) })
	<-settled
	if err := waitTasks(t, p, task.UID()); err != nil {
		t.Fatal(err)
	}
	if task.Enqueued() != shared {
		t.Fatal("a finished task made a channel for Enqueued")
	}
}

// TestGrantedTaskOnVirtualClock: on the auto-advancing clock a task queued
// behind a holder starts executing at the instant the holder is DONE, and,
// sleeping its Duration under a cancellable context, is DONE exactly its launch
// plus that Duration later. The grant registers the goroutine it starts before
// starting it, and the payload's sleep pulls time: a lapse in either would let
// the clock jump to the far sleeper's deadline first.
func TestGrantedTaskOnVirtualClock(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	defer net.Close()
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"),
		BootTime: rng.ConstDuration(0)}, spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown() //nolint:errcheck
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const d = 3 * time.Second
	var holder, waiter *Task
	done := make(chan struct{})
	clock.Go(func() {
		defer close(done)
		clock.Go(func() { clock.Sleep(time.Hour) })
		if holder, err = p.SubmitTask(ctx, spec.TaskDescription{Name: "holder", Cores: 64, Duration: rng.ConstDuration(5 * time.Second)}); err != nil {
			return
		}
		if waiter, err = p.SubmitTask(ctx, spec.TaskDescription{Name: "waiter", Cores: 64, Duration: rng.ConstDuration(d)}); err != nil {
			return
		}
		err = p.WaitTasks(context.Background(), holder.UID(), waiter.UID())
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	holderDone, _ := holder.machine.EnteredAt(states.TaskDone)
	started, _ := waiter.machine.EnteredAt(states.TaskExecuting)
	finished, _ := waiter.machine.EnteredAt(states.TaskDone)
	if !started.Equal(holderDone) {
		t.Fatalf("waiter started at %v, want the holder's DONE at %v", started, holderDone)
	}
	if want := started.Add(waiter.Result().LaunchTime + d); !finished.Equal(want) || waiter.Result().LaunchTime <= 0 {
		t.Fatalf("waiter DONE at %v after a %v launch, want %v", finished, waiter.Result().LaunchTime, want)
	}
}

// queuedBehindService runs, on the auto-advancing clock, a one-node pilot whose
// 64 cores a service holds and a 64-core task queued behind them. At the
// instant the service is ACTIVE it stops the service with stop, and it returns
// the task once DONE together with that instant. The wait is bounded: a
// service whose cores go back behind the scheduler's back leaves the task
// queued, with nothing left to wake it.
func queuedBehindService(t *testing.T, stop func(*Pilot, *service.Instance) error) (*Task, time.Time) {
	t.Helper()
	clock := simtime.NewVirtualAuto(origin)
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	defer net.Close()
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"),
		BootTime: rng.ConstDuration(0)}, spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var task *Task
	var stoppedAt time.Time
	done := make(chan struct{})
	clock.Go(func() {
		defer close(done)
		var inst *service.Instance
		if inst, err = p.Services().Submit(spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: "svc", Cores: 64},
			Model:           "noop",
			ProbeInterval:   probeInterval,
		}); err != nil {
			return
		}
		if err = p.Services().WaitReady(ctx, inst.UID()); err != nil {
			return
		}
		if task, err = p.SubmitTask(ctx, spec.TaskDescription{Name: "queued", Cores: 64,
			Duration: rng.ConstDuration(queuedTaskDuration)}); err != nil {
			return
		}
		clock.Settle() // the pass the submission kicked has ended: the task waits in the pool
		stoppedAt = clock.Now()
		if err = stop(p, inst); err != nil {
			return
		}
		err = p.WaitTasks(ctx, task.UID())
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return task, stoppedAt
}

const (
	probeInterval      = 2 * time.Second
	queuedTaskDuration = 3 * time.Second
)

// checkGrantedAt asserts the queued task started at the instant its cores came
// back and is DONE exactly its launch plus its Duration later.
func checkGrantedAt(t *testing.T, task *Task, freed time.Time) {
	t.Helper()
	started, _ := task.machine.EnteredAt(states.TaskExecuting)
	finished, _ := task.machine.EnteredAt(states.TaskDone)
	if !started.Equal(freed) {
		t.Fatalf("queued task started at %v, want %v, when the service's cores came back", started, freed)
	}
	launch := task.Result().LaunchTime
	if want := freed.Add(launch + queuedTaskDuration); !finished.Equal(want) || launch <= 0 {
		t.Fatalf("queued task DONE at %v after a %v launch, want %v", finished, launch, want)
	}
}

// TestQueuedTaskGetsTerminatedServiceCoresRace: terminating a service hands its
// cores to the task queued behind it at the instant of the Terminate.
func TestQueuedTaskGetsTerminatedServiceCoresRace(t *testing.T) {
	task, at := queuedBehindService(t, func(p *Pilot, inst *service.Instance) error {
		return p.Services().Terminate(inst.UID(), false)
	})
	checkGrantedAt(t, task, at)
}

// TestQueuedTaskGetsKilledServiceCoresRace: a killed service's liveness probe marks
// it FAILED two probe intervals after the kill, and its cores go to the task
// queued behind it at that instant.
func TestQueuedTaskGetsKilledServiceCoresRace(t *testing.T) {
	var inst *service.Instance
	task, at := queuedBehindService(t, func(_ *Pilot, i *service.Instance) error {
		inst = i
		i.Kill()
		return nil
	})
	if !inst.Final() || inst.Err() == nil {
		t.Fatalf("killed service in %s, want FAILED", inst.State())
	}
	checkGrantedAt(t, task, at.Add(2*probeInterval))
}

// bootstrapPilot launches a one-node delta pilot (64 cores, 4 GPUs) on the
// auto-advancing clock with no boot time; the same seed gives every service
// of the same UID the same modelled bootstrap.
func bootstrapPilot(t *testing.T, clock *simtime.Virtual) *Pilot {
	t.Helper()
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	t.Cleanup(func() { _ = net.Close() })
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"),
		BootTime: rng.ConstDuration(0)}, spec.PilotDescription{Platform: "delta", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Shutdown() })
	return p
}

// TestQueuedServiceStartsWhenCoresFree: on the auto-advancing clock a task
// holds every core of a one-node pilot for a minute, and a 1-core noop
// service queues behind it. The queued service holds no goroutine, so the
// clock moves on: the service is granted at the task's DONE and is ACTIVE
// its modelled bootstrap later, at the same instant on every run. A bootstrap
// that waited for its grant on a registered goroutine froze the clock at +0.
func TestQueuedServiceStartsWhenCoresFree(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	p := bootstrapPilot(t, clock)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var hog *Task
	var inst *service.Instance
	var err error
	done := make(chan struct{})
	clock.Go(func() {
		defer close(done)
		if hog, err = p.SubmitTask(ctx, spec.TaskDescription{Name: "hog", Cores: 64,
			Duration: rng.ConstDuration(time.Minute)}); err != nil {
			return
		}
		clock.Settle()
		if inst, err = p.Services().Submit(spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1},
			Model:           "noop",
			StartTimeout:    time.Hour,
		}); err != nil {
			return
		}
		err = p.Services().WaitReady(ctx, inst.UID())
	})
	<-done
	if err != nil {
		t.Fatalf("%v (clock at +%v)", err, clock.Now().Sub(origin))
	}
	hogDone, _ := hog.machine.EnteredAt(states.TaskDone)
	active := clock.Now()
	if want := hogDone.Add(inst.Bootstrap().Total()); !active.Equal(want) {
		t.Fatalf("service ACTIVE at +%v, want the hog's DONE +%v plus its bootstrap %v",
			active.Sub(origin), hogDone.Sub(origin), inst.Bootstrap().Total())
	}
	if want := 63763003215 * time.Nanosecond; active.Sub(origin) != want {
		t.Fatalf("service ACTIVE at +%v, want +%v", active.Sub(origin), want)
	}
}

// TestServiceStartTimeoutFailsExactly: a llama-8b service whose StartTimeout
// falls between its modelled launch and the end of its model load fails
// after init, at its submission plus launch plus init, on every run. A twin
// on a fresh pilot with the same seed and a long timeout reads the modelled
// phases.
func TestServiceStartTimeoutFailsExactly(t *testing.T) {
	run := func(timeout time.Duration) (*Pilot, *service.Instance, time.Time, time.Time) {
		clock := simtime.NewVirtualAuto(origin)
		p := bootstrapPilot(t, clock)
		var inst *service.Instance
		var submitted, settled time.Time
		var err error
		done := make(chan struct{})
		clock.Go(func() {
			defer close(done)
			submitted = clock.Now()
			if inst, err = p.Services().Submit(spec.ServiceDescription{
				TaskDescription: spec.TaskDescription{Name: "llm", GPUs: 1},
				Model:           "llama-8b",
				StartTimeout:    timeout,
			}); err != nil {
				return
			}
			_ = p.Services().WaitReady(context.Background(), inst.UID())
			settled = clock.Now()
			clock.Settle() // the failed bootstrap gives its GPU back after its FAILED

		})
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return p, inst, submitted, settled
	}
	_, twin, _, _ := run(time.Hour)
	if twin.State() != states.ServiceActive {
		t.Fatalf("twin in %s (%v), want ACTIVE", twin.State(), twin.Err())
	}
	launch, init := twin.Bootstrap().Get("launch"), twin.Bootstrap().Get("init")
	if launch <= 0 || init <= 0 {
		t.Fatalf("twin's launch %v and init %v, want both modelled", launch, init)
	}
	for i := 0; i < 3; i++ {
		p, inst, submitted, failed := run(launch + init/2)
		if !inst.Final() || inst.Err() == nil ||
			inst.Err().Error() != "service "+inst.UID()+": start timeout after init" {
			t.Fatalf("run %d: service in %s with %v, want FAILED by its start timeout after init", i, inst.State(), inst.Err())
		}
		if want := submitted.Add(launch + init); !failed.Equal(want) {
			t.Fatalf("run %d: FAILED at +%v, want its launch plus init +%v", i, failed.Sub(origin), want.Sub(origin))
		}
		if got := p.Snapshot().MaxFreeGPUs; got != 4 {
			t.Fatalf("run %d: %d GPUs free after the timeout, want all 4", i, got)
		}
	}
}

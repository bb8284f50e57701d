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
			p, _ := newPilot(t, 100000, deltaPilot())
			var mu sync.Mutex
			var got [][]states.State
			p.Rebind(Hooks{TaskState: func(_ string, from states.State, steps []states.Record) {
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
// over and the request is in the wait pool.
func TestEnqueuedAfterInputStaging(t *testing.T) {
	clock := simtime.NewVirtual(origin)
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	defer net.Close()
	p, err := Launch(Config{Clock: clock, Src: src, Net: net, Platform: platform.NewDelta(),
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
	for deadline := time.Now().Add(10 * time.Second); clock.PendingSleepers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the task never started staging")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-task.Enqueued():
		t.Fatal("Enqueued closed while the task stages its input")
	default:
	}
	if got := task.State(); got != states.TaskStagingInput {
		t.Fatalf("state while staging = %s", got)
	}
	clock.Advance(time.Hour)
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

// TestSubmitVsShutdownSingleWinner: 64 SubmitTask calls race one Shutdown.
// Every task the pilot accepted ends — DONE if its grant came first, failed
// with ErrPilotStopped if the drain or its own look at the stop signal did —
// its completion hook runs once, and none is left in AGENT_SCHEDULING on a
// closed wait pool.
func TestSubmitVsShutdownSingleWinner(t *testing.T) {
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
// when both are the one closed channel and the task never had its own.
func TestTaskChannelsAskedBeforeDuringAndAfter(t *testing.T) {
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
		{"settled", (*Task).settledChan, (*Task).settle},
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
			if ev.ask(after) != (<-chan struct{})(closedChan) || after.enqueued.ch != nil || after.done.ch != nil {
				t.Fatal("a task nobody asked made a channel of its own")
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
	if task.Enqueued() != (<-chan struct{})(closedChan) || task.enqueued.ch != nil {
		t.Fatal("a finished task made a channel for Enqueued")
	}
}

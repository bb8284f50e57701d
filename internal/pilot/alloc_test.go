package pilot

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// submitTaskAllocBudget is TestSubmitTaskAllocBudget's budget, in heap
// objects per task: what it measures, 3.0 (the task, the closure of the go
// statement its grant starts it with, and the allocation the grant carries;
// its UID, spelled 100 at a time, and the task table's growth add 0.025),
// plus one.
const submitTaskAllocBudget = 4.0

// TestSubmitTaskAllocBudget pins what the pilot's half of a task costs in
// heap objects: SubmitTask, the grant, execute and the settle of a Func task
// with a completion hook, its machine inside it and its UID spelled a block
// at a time. core's TestTaskSubmitAllocBudget measures the same path under
// the session; a closure per task brought back in the pilot fails here
// first. As there, the tasks run on one P and the quietest of five rounds
// counts.
func TestSubmitTaskAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const rounds, n = 5, 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clock := simtime.NewVirtualAuto(origin)
	clock.AddRunner()
	defer clock.DoneRunner()
	src := rng.New(11)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	defer net.Close()
	p, err := Launch(Config{
		Clock: clock, Src: src, Net: net, Platform: platform.DefaultTopology().Platform("delta"),
		BootTime: rng.ConstDuration(0), LaunchModel: &platform.LaunchModel{},
	}, spec.PilotDescription{Platform: "delta", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Shutdown() }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// One hook for every task, as a session registers its settle: the last
	// task of a round to settle fires the round's latch.
	var mu sync.Mutex
	settled := make([]simtime.Latch, rounds)
	round, left := 0, 0
	hook := func(*Task) {
		mu.Lock()
		if left--; left == 0 {
			settled[round].Fire()
		}
		mu.Unlock()
	}
	var before, after runtime.MemStats
	perTask := 0.0
	for r := 0; r < rounds; r++ {
		descs := make([]spec.TaskDescription, n)
		for i := range descs {
			descs[i] = spec.TaskDescription{
				Name: "alloc-budget", Cores: 1 + i%4,
				Func: func(context.Context) error { return nil },
			}
		}
		mu.Lock()
		round, left = r, n
		mu.Unlock()
		runtime.ReadMemStats(&before)
		for _, d := range descs {
			task, err := p.SubmitTask(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			task.OnDone(hook)
		}
		mu.Lock()
		err := settled[r].Wait(ctx, clock, &mu)
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / n
		if r == 0 || got < perTask {
			perTask = got
		}
	}
	t.Logf("SubmitTask to settle: %.2f objects/task", perTask)
	if perTask > submitTaskAllocBudget {
		t.Errorf("SubmitTask to settle allocates %.2f objects/task, budget %.1f", perTask, submitTaskAllocBudget)
	}
}

package core

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/spec"
)

// Budgets of TestTaskSubmitAllocBudget, in heap objects per task. The test
// measured 41.1 and 21.4 at the parent of the placement-engine PR, 39.1 and
// 21.4 after it, and 37.2 and 6.4 with the task description, like the
// transition and the bind, off encoding/json on both sides. With the task
// settled by its pilot's completion hook (no watcher goroutine, no channel
// per state passed through), its records appended without a box each and no
// envelope built for an update channel nobody listens to, it measured 19.6
// to 20.3 and 6.4. With the task's goroutine started by its grant (a
// continuation closure in the router's table where a channel was parked on),
// one observer trampoline a pilot where there was one a task, and a
// cancellation watch only under a context that can be cancelled, it measures
// 16.4 to 16.6 and 6.3 (19.2 to 19.5 when the context can). With the three
// channels of a task made only for somebody who asks before they close, its
// history kept inside its machine, its first completion hook in a field, its
// slot indices inside its allocation, no stream derived for a launch model
// with nothing to sample and the scheduler's policy window reused, it measures
// 8.1 to 8.3 and 5.3 (a recovered handle is the same handle). One more object
// per task on either path exceeds the budget.
const (
	submitAllocBudget  = 9.2
	recoverAllocBudget = 6.0
)

// TestTaskSubmitAllocBudget pins what one task costs in heap objects on the
// two paths bench/rpbench's task workloads time: a journaled Submit+Wait
// through the managers, placer, pilot, scheduler and executor
// (task_journal), and one settled task of a core.Recover on the WAL that
// campaign wrote (task_recover). BENCHMARK.json bounds allocs_per_op on both
// at 2 %, so one extra allocation per task fails the benchmark gate; this
// fails first. Contention between the submitter and the pilots' goroutines
// adds a noisy four to ten objects per task on two cores, so the campaign
// runs on one P and the quietest of five rounds counts; the recovery figure
// repeats exactly.
func TestTaskSubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const rounds, n = 5, 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wal := filepath.Join(t.TempDir(), "alloc.wal")
	s, err := NewSession(SessionConfig{
		Seed:              7,
		Clock:             simtime.NewScaled(1e6, DefaultOrigin),
		FastBoot:          true,
		JournalPath:       wal,
		JournalFlushEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, err := s.PilotManager().Submit(spec.PilotDescription{Platform: "hetero", Nodes: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = p.Shutdown() }()
		s.TaskManager().AddPilot(p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

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
		runtime.ReadMemStats(&before)
		// Submitted as the benchmark submits: a context that cannot be
		// cancelled arms no cancellation watch (three more objects a task).
		tasks, err := s.TaskManager().Submit(context.Background(), descs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.TaskManager().Wait(ctx, tasks...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / n
		if r == 0 || got < perTask {
			perTask = got
		}
	}
	t.Logf("journaled Submit+Wait: %.1f objects/task", perTask)
	if perTask > submitAllocBudget {
		t.Errorf("journaled Submit+Wait allocates %.1f objects/task, budget %.1f", perTask, submitAllocBudget)
	}

	// Wait orders after DONE is journaled: every record is in before the
	// client is cut off.
	if appends, _ := s.Journal().Stats(); appends != 8*rounds*n+7 {
		t.Fatalf("journal holds %d records after Wait, want %d", appends, 8*rounds*n+7)
	}
	s.Abandon()

	runtime.ReadMemStats(&before)
	rs, rep, err := Recover(wal, RecoverConfig{FlushEvery: time.Hour})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if len(rep.TasksSettled) != rounds*n {
		t.Fatalf("recovery settled %d of %d tasks", len(rep.TasksSettled), rounds*n)
	}
	// Every record a task wrote came back on the hand-written codec's path.
	fast, slow := rep.Stats.FastDecodes, rep.Stats.JSONDecodes
	if fast["task"] != rounds*n || fast["bind"] != rounds*n || fast["transition"] != 6*rounds*n+4 ||
		slow["task"]+slow["bind"]+slow["transition"] != 0 {
		t.Errorf("replay decoded %v on the fast path and %v through encoding/json, want every task, bind and transition on the first", fast, slow)
	}
	perTask = float64(after.Mallocs-before.Mallocs) / (rounds * n)
	t.Logf("Recover: %.1f objects/task", perTask)
	if perTask > recoverAllocBudget {
		t.Errorf("Recover allocates %.1f objects/task, budget %.1f", perTask, recoverAllocBudget)
	}
}

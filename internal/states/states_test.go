package states

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

var origin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// held returns a virtual clock at origin with the test goroutine registered
// on it until the test ends: each Sleep of the test moves it, exactly.
func held(t *testing.T) *simtime.Virtual {
	clk := simtime.NewVirtualAuto(origin)
	clk.AddRunner()
	t.Cleanup(clk.DoneRunner)
	return clk
}

func TestTaskHappyPath(t *testing.T) {
	clk := held(t)
	m := NewMachine("task.0001", TaskModel(), clk)
	path := []State{
		TaskTmgrScheduling, TaskStagingInput, TaskScheduling,
		TaskExecuting, TaskStagingOutput, TaskDone,
	}
	for _, s := range path {
		clk.Sleep(time.Second)
		if err := m.To(s); err != nil {
			t.Fatalf("To(%s): %v", s, err)
		}
	}
	if !m.IsFinal() {
		t.Fatal("DONE not final")
	}
	if got := len(m.History()); got != len(path)+1 {
		t.Fatalf("history length %d, want %d", got, len(path)+1)
	}
	if at, _ := m.EnteredAt(TaskDone); !at.Equal(origin.Add(time.Duration(len(path)) * time.Second)) {
		t.Fatalf("DONE entered at %v, want origin+%ds", at, len(path))
	}
}

func TestServiceHappyPath(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	m := NewMachine("service.0001", ServiceModel(), clk)
	path := []State{
		ServiceSmgrScheduling, ServiceStagingInput, ServiceScheduling,
		ServiceLaunching, ServiceInitializing, ServicePublishing,
		ServiceActive, ServiceDraining, ServiceDone,
	}
	for _, s := range path {
		if err := m.To(s); err != nil {
			t.Fatalf("To(%s): %v", s, err)
		}
	}
}

func TestPilotHappyPath(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	m := NewMachine("pilot.0000", PilotModel(), clk)
	for _, s := range []State{PilotLaunching, PilotActive, PilotDone} {
		if err := m.To(s); err != nil {
			t.Fatalf("To(%s): %v", s, err)
		}
	}
}

func TestIllegalTransitionRejected(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	m := NewMachine("task.0002", TaskModel(), clk)
	err := m.To(TaskExecuting) // NEW → EXECUTING skips four states
	if err == nil {
		t.Fatal("illegal transition accepted")
	}
	var te *transitionError
	if !errors.As(err, &te) {
		t.Fatalf("error type %T, want *transitionError", err)
	}
	if te.From != TaskNew || te.To != TaskExecuting {
		t.Fatalf("transitionError = %+v", te)
	}
	if m.Current() != TaskNew {
		t.Fatal("machine moved despite rejection")
	}
}

func TestNoEscapeFromFinalStates(t *testing.T) {
	for _, model := range []*Model{TaskModel(), ServiceModel(), PilotModel()} {
		for _, s := range model.States() {
			if !model.IsFinal(s) {
				continue
			}
			for _, to := range model.States() {
				if model.CanTransition(s, to) {
					t.Errorf("%s: final state %s has edge to %s", model.entity, s, to)
				}
			}
		}
	}
}

func TestEveryNonFinalStateCanFail(t *testing.T) {
	for _, model := range []*Model{TaskModel(), ServiceModel(), PilotModel()} {
		var failed State
		switch model.entity {
		case EntityPilot:
			failed = pilotFailed
		case EntityService:
			failed = serviceFailed
		default:
			failed = TaskFailed
		}
		for _, s := range model.States() {
			if model.IsFinal(s) {
				continue
			}
			if !model.CanTransition(s, failed) {
				t.Errorf("%s: state %s cannot fail", model.entity, s)
			}
		}
	}
}

func TestFailHelper(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	cases := []struct {
		model *Model
		want  State
	}{
		{TaskModel(), TaskFailed},
		{ServiceModel(), serviceFailed},
		{PilotModel(), pilotFailed},
	}
	for _, c := range cases {
		m := NewMachine("x", c.model, clk)
		if err := m.Fail(); err != nil {
			t.Fatalf("%s Fail: %v", c.model.entity, err)
		}
		if m.Current() != c.want {
			t.Fatalf("%s Fail → %s, want %s", c.model.entity, m.Current(), c.want)
		}
	}
}

func TestHistoryTimestamps(t *testing.T) {
	clk := held(t)
	m := NewMachine("task.0003", TaskModel(), clk)
	clk.Sleep(3 * time.Second)
	_ = m.To(TaskTmgrScheduling)
	clk.Sleep(5 * time.Second)
	_ = m.To(TaskStagingInput)

	at, ok := m.EnteredAt(TaskTmgrScheduling)
	if !ok || !at.Equal(origin.Add(3*time.Second)) {
		t.Fatalf("EnteredAt(TMGR_SCHEDULING) = %v/%v", at, ok)
	}
	d, ok := m.Between(TaskTmgrScheduling, TaskStagingInput)
	if !ok || d != 5*time.Second {
		t.Fatalf("Between = %v/%v, want 5s", d, ok)
	}
	if _, ok := m.Between(TaskTmgrScheduling, TaskDone); ok {
		t.Fatal("Between reported ok for never-entered state")
	}
}

func TestCallbacksFire(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	m := NewMachine("task.0004", TaskModel(), clk)
	var mu sync.Mutex
	var got []State
	m.OnTransition(func(uid string, from, to State, at time.Time) {
		if uid != "task.0004" {
			t.Errorf("callback uid = %q", uid)
		}
		mu.Lock()
		got = append(got, to)
		mu.Unlock()
	})
	_ = m.To(TaskTmgrScheduling)
	_ = m.To(TaskStagingInput)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != TaskTmgrScheduling || got[1] != TaskStagingInput {
		t.Fatalf("callback sequence = %v", got)
	}
}

// TestOnTransitionWatcher: a watcher registered before a transition hears
// of it, and of each later one exactly once, as it commits.
func TestOnTransitionWatcher(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	m := NewMachine("task.0005", TaskModel(), clk)
	ch := make(chan State, 2)
	m.OnTransition(func(_ string, _, to State, _ time.Time) { ch <- to })
	_ = m.To(TaskTmgrScheduling)
	select {
	case s := <-ch:
		if s != TaskTmgrScheduling {
			t.Fatalf("watcher heard %s", s)
		}
	default:
		t.Fatal("watcher heard nothing")
	}
	// the next transition is heard once, and only it
	_ = m.To(TaskStagingInput)
	if s := <-ch; s != TaskStagingInput {
		t.Fatalf("watcher heard %s, want %s", s, TaskStagingInput)
	}
	select {
	case s := <-ch:
		t.Fatalf("watcher re-heard %s", s)
	default:
	}
}

func TestConcurrentTransitionsOnlyOneWins(t *testing.T) {
	clk := simtime.NewVirtualAuto(origin)
	m := NewMachine("task.0006", TaskModel(), clk)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.To(TaskTmgrScheduling)
		}(i)
	}
	wg.Wait()
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("%d concurrent transitions succeeded, want exactly 1", okCount)
	}
}

func TestMachineLegalityProperty(t *testing.T) {
	// Property: replaying any random walk over To() never leaves the machine
	// in a state unreachable via legal edges, and history grows only on
	// success.
	models := []*Model{TaskModel(), ServiceModel(), PilotModel()}
	f := func(seedSteps []uint8, which uint8) bool {
		model := models[int(which)%len(models)]
		all := model.States()
		clk := simtime.NewVirtualAuto(origin)
		m := NewMachine("prop", model, clk)
		for _, b := range seedSteps {
			target := all[int(b)%len(all)]
			prev := m.Current()
			hlen := len(m.History())
			err := m.To(target)
			if err == nil {
				if !model.CanTransition(prev, target) {
					return false // accepted illegal edge
				}
				if len(m.History()) != hlen+1 {
					return false
				}
			} else {
				if m.Current() != prev || len(m.History()) != hlen {
					return false // mutated on failure
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModelAccessors(t *testing.T) {
	m := ServiceModel()
	if m.entity != EntityService {
		t.Fatalf("Entity = %s", m.entity)
	}
	if m.Initial() != ServiceNew {
		t.Fatalf("Initial = %s", m.Initial())
	}
	if len(m.States()) < 10 {
		t.Fatalf("service model has %d states", len(m.States()))
	}
}

// longest counts the states on the longest path from s (the models are
// acyclic).
func longest(edges map[State][]State, s State) int {
	n := 0
	for _, t := range edges[s] {
		n = max(n, longest(edges, t))
	}
	return n + 1
}

// TestModelsShared: each model is built once; every caller gets the same
// immutable value and may read it from any goroutine.
func TestModelsShared(t *testing.T) {
	if PilotModel() != PilotModel() || TaskModel() != TaskModel() || ServiceModel() != ServiceModel() {
		t.Fatal("a model accessor built a second model")
	}
	if ModelFor(EntityTask) != TaskModel() || ModelFor("job") != nil {
		t.Fatal("ModelFor does not hand out the shared models")
	}
	// A machine keeps its history in place: the array holds the longest path
	// of the deepest model, and no more.
	for m, want := range map[*Model]int{PilotModel(): 4, TaskModel(): 7, ServiceModel(): maxDepth} {
		if got := longest(m.next, m.initial); got != want {
			t.Fatalf("%s model: longest path %d states, want %d", m.entity, got, want)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if m := TaskModel(); !m.CanTransition(TaskNew, TaskTmgrScheduling) || m.CanTransition(TaskDone, TaskNew) || !m.IsFinal(TaskDone) {
					t.Error("shared task model misread under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTransitionAllocBudget: a transition allocates nothing. The history is
// an array in the machine, as long as the deepest model's longest path, and To
// runs the callback slice it read instead of a copy (OnTransition swaps in a
// new slice).
func TestTransitionAllocBudget(t *testing.T) {
	clock := simtime.NewVirtualAuto(origin)
	path := []State{TaskTmgrScheduling, TaskStagingInput, TaskScheduling, TaskExecuting, TaskStagingOutput, TaskDone}
	machines := make([]*Machine, 50)
	fired := 0
	for i := range machines {
		machines[i] = NewMachine("t", TaskModel(), clock)
		machines[i].OnTransition(func(string, State, State, time.Time) { fired++ })
	}
	next := 0
	allocs := testing.AllocsPerRun(len(machines)-1, func() {
		for _, s := range path {
			if err := machines[next].To(s); err != nil {
				t.Fatal(err)
			}
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("a task's %d transitions allocate %.1f times, want 0", len(path), allocs)
	}
	if fired != len(machines)*len(path) {
		t.Fatalf("callback fired %d times, want %d", fired, len(machines)*len(path))
	}

	// The same in the chains a pilot makes of them, reported to a batch
	// observer: the steps are the machine's history, not a copy.
	steps := 0
	for i := range machines {
		machines[i] = NewMachine("t", TaskModel(), clock)
		machines[i].OnBatch(func(_ string, _ State, s []Record) { steps += len(s) })
	}
	next = 0
	allocs = testing.AllocsPerRun(len(machines)-1, func() {
		m := machines[next]
		if m.To(path[0], path[1], path[2]) != nil || m.To(path[3]) != nil || m.To(path[4], path[5]) != nil {
			t.Fatal("a chain was refused")
		}
		next++
	})
	if allocs != 0 || steps != len(machines)*len(path) {
		t.Fatalf("a task's three chains allocate %.1f times and report %d steps, want 0 and %d", allocs, steps, len(machines)*len(path))
	}
}

// stepClock is a clock that moves by a millisecond every time it is read.
type stepClock struct {
	simtime.Clock
	reads int
}

func (c *stepClock) Now() time.Time {
	c.reads++
	return origin.Add(time.Duration(c.reads) * time.Millisecond)
}

// TestToChain: To takes a chain of states as one call. Every step gets its
// own clock reading and its own OnTransition callback, in order; the batch
// observer gets them all, once, after those; a waiter gets the first. A chain
// with an illegal edge anywhere in it changes nothing and tells no one.
func TestToChain(t *testing.T) {
	clock := &stepClock{Clock: simtime.NewVirtualAuto(origin)}
	m := NewMachine("t", TaskModel(), clock)
	var log []string
	m.OnTransition(func(uid string, from, to State, at time.Time) {
		log = append(log, fmt.Sprintf("step %s %s>%s @%d", uid, from, to, at.Sub(origin).Milliseconds()))
	})
	m.OnBatch(func(string, State, []Record) { t.Error("a replaced batch observer ran") })
	m.OnBatch(func(uid string, from State, steps []Record) {
		line := fmt.Sprintf("batch %s %s", uid, from)
		for _, s := range steps {
			line += fmt.Sprintf(">%s @%d", s.State, s.At.Sub(origin).Milliseconds())
		}
		log = append(log, line)
	})

	var terr *transitionError
	err := m.To(TaskTmgrScheduling, TaskStagingInput, TaskExecuting)
	if !errors.As(err, &terr) || terr.From != TaskStagingInput || terr.To != TaskExecuting {
		t.Fatalf("chain with an illegal last edge: %v, want a transitionError naming it", err)
	}
	if m.Current() != TaskNew || len(m.History()) != 1 || len(log) != 0 {
		t.Fatalf("a refused chain left the machine in %s with %d records and told %v", m.Current(), len(m.History()), log)
	}
	if err := m.To(); err != nil || len(log) != 0 {
		t.Fatalf("empty chain: %v, told %v", err, log)
	}

	if err := m.To(TaskTmgrScheduling, TaskStagingInput, TaskScheduling); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"step t NEW>TMGR_SCHEDULING @2",
		"step t TMGR_SCHEDULING>AGENT_STAGING_INPUT @3",
		"step t AGENT_STAGING_INPUT>AGENT_SCHEDULING @4",
		"batch t NEW>TMGR_SCHEDULING @2>AGENT_STAGING_INPUT @3>AGENT_SCHEDULING @4",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("observers saw\n%q, want\n%q", log, want)
	}
	if m.Current() != TaskScheduling {
		t.Fatalf("current = %s", m.Current())
	}
	hist := m.History()
	if len(hist) != 4 || hist[3].State != TaskScheduling || !hist[3].At.Equal(origin.Add(4*time.Millisecond)) {
		t.Fatalf("history = %+v", hist)
	}
	log = nil
	if err := m.To(TaskExecuting); err != nil {
		t.Fatal(err)
	}
	if want := []string{"step t AGENT_SCHEDULING>AGENT_EXECUTING @5", "batch t AGENT_SCHEDULING>AGENT_EXECUTING @5"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("single step: observers saw %q, want %q", log, want)
	}
}

// TestOnTransitionDuringTo: a callback registered while another runs must
// not disturb the slice the running To iterates.
func TestOnTransitionDuringTo(t *testing.T) {
	m := NewMachine("t", TaskModel(), simtime.NewVirtualAuto(origin))
	var order []string
	m.OnTransition(func(string, State, State, time.Time) {
		order = append(order, "a")
		m.OnTransition(func(string, State, State, time.Time) { order = append(order, "late") })
	})
	m.OnTransition(func(string, State, State, time.Time) { order = append(order, "b") })
	if err := m.To(TaskTmgrScheduling); err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("first transition ran %v, want [a b]", order)
	}
}

// TestToDeliversInCommitOrderRace: a To that commits while an earlier To's
// callbacks still run delivers its own only after they have returned. The
// first callback holds until a second To has committed, then gives that To
// 50 ms to overtake it: the observers must still see the commit order.
func TestToDeliversInCommitOrderRace(t *testing.T) {
	m := NewMachine("svc", ServiceModel(), simtime.NewReal())
	var mu sync.Mutex
	var seen []string
	record := func(s string) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	}
	second := make(chan error, 1)
	m.OnTransition(func(_ string, _, to State, _ time.Time) {
		if to == ServiceSmgrScheduling {
			go func() { second <- m.To(serviceFailed) }()
			for m.Current() != serviceFailed {
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-second:
				second <- err
			case <-time.After(50 * time.Millisecond):
			}
		}
		record(string(to))
	})
	m.OnBatch(func(_ string, _ State, steps []Record) { record("batch " + string(steps[len(steps)-1].State)) })
	if err := m.To(ServiceSmgrScheduling); err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	want := []string{
		string(ServiceSmgrScheduling), "batch " + string(ServiceSmgrScheduling),
		string(serviceFailed), "batch " + string(serviceFailed),
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("observers saw %q, want %q", seen, want)
	}
}

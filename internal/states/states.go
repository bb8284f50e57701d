// Package states implements the entity state model of the runtime. It is
// the Go analogue of RADICAL-Pilot's stateful execution paradigm: pilots,
// tasks and services progress through a fixed, validated sequence of
// states, every transition is timestamped on the session clock, and the
// recorded history is the raw material for the paper's BT/RT/IT metric
// decomposition. A machine's observers have one shape, BatchCallback, and one
// door, OnTransition: each sees what one To call committed, in commit order.
package states

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/simtime"
)

// State is one named lifecycle state.
type State string

// Pilot states (client-side manager prefix PMGR, mirroring RP).
const (
	pilotNew       State = "NEW"
	PilotLaunching State = "PMGR_LAUNCHING"
	PilotActive    State = "PMGR_ACTIVE"
	PilotDone      State = "DONE"
	pilotFailed    State = "FAILED"
	pilotCanceled  State = "CANCELED"
)

// Task states, following RADICAL-Pilot's split between client-side (TMGR)
// and agent-side (AGENT) components.
const (
	TaskNew            State = "NEW"
	TaskTmgrScheduling State = "TMGR_SCHEDULING"
	TaskStagingInput   State = "AGENT_STAGING_INPUT"
	TaskScheduling     State = "AGENT_SCHEDULING"
	TaskExecuting      State = "AGENT_EXECUTING"
	TaskStagingOutput  State = "AGENT_STAGING_OUTPUT"
	TaskDone           State = "DONE"
	TaskFailed         State = "FAILED"
	taskCanceled       State = "CANCELED"
)

// Service states. A service is a task whose lifecycle gains an explicit
// readiness phase: after AGENT_EXECUTING starts the service process, the
// service loads its capability (e.g. an ML model), publishes its endpoint,
// and only then becomes ACTIVE — the paper's "available to receive client
// calls". DRAINING covers graceful shutdown: the service stops accepting
// new requests and finishes its queue.
const (
	serviceNew            State = "NEW"
	ServiceSmgrScheduling State = "SMGR_SCHEDULING"
	ServiceStagingInput   State = "AGENT_STAGING_INPUT"
	ServiceScheduling     State = "AGENT_SCHEDULING"
	ServiceLaunching      State = "AGENT_EXECUTING"      // process launch on target resource
	ServiceInitializing   State = "SERVICE_INITIALIZING" // capability/model load
	ServicePublishing     State = "SERVICE_PUBLISHING"   // endpoint publication
	ServiceActive         State = "SERVICE_ACTIVE"
	ServiceDraining       State = "SERVICE_DRAINING"
	ServiceDone           State = "DONE"
	serviceFailed         State = "FAILED"
	serviceCanceled       State = "CANCELED"
)

// Entity discriminates the three state models.
type Entity string

// Entity kinds.
const (
	EntityPilot   Entity = "pilot"
	EntityTask    Entity = "task"
	EntityService Entity = "service"
)

// Model holds the legal transition relation for one entity kind.
type Model struct {
	entity  Entity
	initial State
	next    map[State][]State
	final   map[State]bool
}

// maxDepth is the number of states on the longest path of the deepest model,
// the service's: what a Machine reserves in place for its history, which then
// never outgrows it.
const maxDepth = 10

func newModel(entity Entity, initial State, edges map[State][]State, finals ...State) *Model {
	f := make(map[State]bool, len(finals))
	for _, s := range finals {
		f[s] = true
	}
	return &Model{entity: entity, initial: initial, next: edges, final: f}
}

// failureEdges appends FAILED and CANCELED targets to every non-final state.
func failureEdges(edges map[State][]State, failed, canceled State, finals ...State) map[State][]State {
	isFinal := make(map[State]bool)
	for _, s := range finals {
		isFinal[s] = true
	}
	out := make(map[State][]State, len(edges))
	for s, ts := range edges {
		if isFinal[s] {
			out[s] = ts
			continue
		}
		out[s] = append(append([]State{}, ts...), failed, canceled)
	}
	return out
}

// The three models are built once and never mutated after init, so every
// machine and every replayed record shares them.
var (
	pilotModel = newModel(EntityPilot, pilotNew, failureEdges(map[State][]State{
		pilotNew:       {PilotLaunching},
		PilotLaunching: {PilotActive},
		PilotActive:    {PilotDone},
		PilotDone:      {},
		pilotFailed:    {},
		pilotCanceled:  {},
	}, pilotFailed, pilotCanceled, PilotDone, pilotFailed, pilotCanceled), PilotDone, pilotFailed, pilotCanceled)

	taskModel = newModel(EntityTask, TaskNew, failureEdges(map[State][]State{
		TaskNew:            {TaskTmgrScheduling},
		TaskTmgrScheduling: {TaskStagingInput},
		TaskStagingInput:   {TaskScheduling},
		TaskScheduling:     {TaskExecuting},
		TaskExecuting:      {TaskStagingOutput},
		TaskStagingOutput:  {TaskDone},
		TaskDone:           {},
		TaskFailed:         {},
		taskCanceled:       {},
	}, TaskFailed, taskCanceled, TaskDone, TaskFailed, taskCanceled), TaskDone, TaskFailed, taskCanceled)

	serviceModel = newModel(EntityService, serviceNew, failureEdges(map[State][]State{
		serviceNew:            {ServiceSmgrScheduling},
		ServiceSmgrScheduling: {ServiceStagingInput},
		ServiceStagingInput:   {ServiceScheduling},
		ServiceScheduling:     {ServiceLaunching},
		ServiceLaunching:      {ServiceInitializing},
		ServiceInitializing:   {ServicePublishing},
		ServicePublishing:     {ServiceActive},
		ServiceActive:         {ServiceDraining, ServiceDone},
		ServiceDraining:       {ServiceDone},
		ServiceDone:           {},
		serviceFailed:         {},
		serviceCanceled:       {},
	}, serviceFailed, serviceCanceled, ServiceDone, serviceFailed, serviceCanceled), ServiceDone, serviceFailed, serviceCanceled)
)

// PilotModel returns the pilot state model.
func PilotModel() *Model { return pilotModel }

// TaskModel returns the task state model.
func TaskModel() *Model { return taskModel }

// ServiceModel returns the service state model: the task model extended
// with the initialization, publication, readiness, and draining phases the
// paper's ServiceManager introduces.
func ServiceModel() *Model { return serviceModel }

// ModelFor returns the state model of an entity kind, or nil for an
// unknown kind. Recovery uses it to judge journaled states by the same
// relation the live machines enforce.
func ModelFor(e Entity) *Model {
	switch e {
	case EntityPilot:
		return PilotModel()
	case EntityTask:
		return TaskModel()
	case EntityService:
		return ServiceModel()
	default:
		return nil
	}
}

// Initial returns the model's initial state.
func (m *Model) Initial() State { return m.initial }

// CanTransition reports whether from → to is a legal edge.
func (m *Model) CanTransition(from, to State) bool {
	for _, s := range m.next[from] {
		if s == to {
			return true
		}
	}
	return false
}

// IsFinal reports whether s is terminal.
func (m *Model) IsFinal(s State) bool { return m.final[s] }

// States returns every state reachable in the model (keys of the edge map).
func (m *Model) States() []State {
	out := make([]State, 0, len(m.next))
	for s := range m.next {
		out = append(out, s)
	}
	return out
}

// Record is one timestamped transition.
type Record struct {
	State State
	At    time.Time
}

// BatchCallback observes the transitions one To call committed: the machine
// left from and entered steps in order, each step from the state before it.
// steps is the machine's own history: read it, do not keep or change it.
type BatchCallback func(uid string, from State, steps []Record)

// Machine tracks the live state of one entity instance. Once Init has run it
// is safe for concurrent use.
type Machine struct {
	uid   string
	model *Model
	clock simtime.Clock

	mu        sync.Mutex
	current   State
	history   []Record // over hist: no model's longest path outgrows it
	hist      [maxDepth]Record
	callbacks []BatchCallback // over one until a second observer comes
	one       [1]BatchCallback
	// Callbacks run in commit order: each committing To draws a ticket
	// and runs its callbacks once every earlier ticket is delivered; one
	// that has to wait parks on turn, which the next delivery closes.
	issued, delivered uint32
	turn              chan struct{}
}

// Init puts m, a zero Machine, in the model's initial state, timestamped
// now. A machine lives inside the entity it tracks, so it costs that entity
// no object of its own; it must not be copied after Init.
func (m *Machine) Init(uid string, model *Model, clock simtime.Clock) {
	m.uid, m.model, m.clock, m.current = uid, model, clock, model.Initial()
	m.history = append(m.hist[:0], Record{State: model.Initial(), At: clock.Now()})
	m.callbacks = m.one[:0]
}

// UID returns the entity UID.
func (m *Machine) UID() string { return m.uid }

// Current returns the current state.
func (m *Machine) Current() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// IsFinal reports whether the machine reached a terminal state.
func (m *Machine) IsFinal() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.model.IsFinal(m.current)
}

// OnTransition adds cb to the machine's observers: it runs once per later To
// call (synchronously, outside the machine lock, after the observers added
// before it) with every transition that call committed, in commit order.
func (m *Machine) OnTransition(cb BatchCallback) {
	m.mu.Lock()
	// To runs the slice it read without copying it: append writes only past
	// that slice's end.
	m.callbacks = append(m.callbacks, cb)
	m.mu.Unlock()
}

// To moves the machine along chain, one state after the other. Every edge is
// checked first: an illegal one returns an error and leaves the machine where
// it was. Each step is stamped with its own clock reading. The callbacks run
// on the caller once every earlier To's callbacks have returned, so
// observers see the transitions in the order they were committed; a
// callback must not make a legal transition of its own machine.
func (m *Machine) To(chain ...State) error {
	if len(chain) == 0 {
		return nil
	}
	m.mu.Lock()
	from := m.current
	prev := from
	for _, to := range chain {
		if !m.model.CanTransition(prev, to) {
			m.mu.Unlock()
			return &transitionError{Entity: m.model.entity, UID: m.uid, From: prev, To: to}
		}
		prev = to
	}
	for _, to := range chain {
		m.history = append(m.history, Record{State: to, At: m.clock.Now()})
	}
	m.current = chain[len(chain)-1]
	// Entries of the history are written once, so the tail is safe to read
	// outside the lock.
	steps := m.history[len(m.history)-len(chain):]
	cbs := m.callbacks
	ticket := m.issued
	m.issued++
	wait := ticket != m.delivered
	m.mu.Unlock()
	if wait {
		m.awaitTurn(ticket)
	}
	for _, cb := range cbs {
		cb(m.uid, from, steps)
	}
	m.mu.Lock()
	m.delivered++
	if m.turn != nil {
		close(m.turn)
		m.turn = nil
	}
	m.mu.Unlock()
	return nil
}

// awaitTurn parks the caller until every ticket before ticket is delivered.
func (m *Machine) awaitTurn(ticket uint32) {
	m.mu.Lock()
	for ticket != m.delivered {
		if m.turn == nil {
			m.turn = make(chan struct{})
		}
		turn := m.turn
		m.mu.Unlock()
		<-turn
		m.mu.Lock()
	}
	m.mu.Unlock()
}

// Fail moves the machine to its model's FAILED state if legal.
func (m *Machine) Fail() error {
	switch m.model.entity {
	case EntityPilot:
		return m.To(pilotFailed)
	case EntityService:
		return m.To(serviceFailed)
	default:
		return m.To(TaskFailed)
	}
}

// History returns a copy of the timestamped transition history.
func (m *Machine) History() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record{}, m.history...)
}

// EnteredAt returns the time the machine first entered s and whether it
// ever did.
func (m *Machine) EnteredAt(s State) (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.history {
		if r.State == s {
			return r.At, true
		}
	}
	return time.Time{}, false
}

// Between returns the duration between the first entries of a and b. It
// reports ok=false when either state was never entered.
func (m *Machine) Between(a, b State) (time.Duration, bool) {
	ta, oka := m.EnteredAt(a)
	tb, okb := m.EnteredAt(b)
	if !oka || !okb {
		return 0, false
	}
	return tb.Sub(ta), true
}

// transitionError reports an illegal transition attempt.
type transitionError struct {
	Entity Entity
	UID    string
	From   State
	To     State
}

// Error implements error.
func (e *transitionError) Error() string {
	return fmt.Sprintf("states: illegal %s transition %s → %s (uid %s)", e.Entity, e.From, e.To, e.UID)
}

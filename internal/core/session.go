// Package core is the client-facing runtime facade — the analogue of
// RADICAL-Pilot's client layer extended with the paper's service
// capabilities. A Session owns the clock, RNG, platform topology,
// communication network; a PilotManager acquires pilots; a
// TaskManager and a ServiceManager submit TaskDescriptions and
// ServiceDescriptions through one unified API (Fig. 2 (1)); an Updater
// publishes every entity state transition on a dedicated channel
// (Fig. 2 (6)). Remote (e.g. R3-hosted) services register their endpoints
// directly with the session, so client tasks consume local and remote
// model instances through the same interface.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/loadbal"
	"repro/internal/msgq"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/restapi"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/states"
)

// DefaultOrigin is the simulated epoch used when no clock is supplied.
var DefaultOrigin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// updatesAddr is the session-level PUB endpoint for state updates.
const updatesAddr = "session//updates"

// SessionConfig parameterizes a Session.
type SessionConfig struct {
	// Seed drives all stochastic behaviour; the same seed replays the
	// same run.
	Seed uint64
	// Clock defaults to an auto-advancing virtual clock at DefaultOrigin
	// (simtime.NewVirtualAuto). On that clock a TaskManager.Wait caller
	// must run on a goroutine registered with the clock: Wait parks its
	// caller on the clock's books, and simulated time stands still for a
	// caller it cannot see.
	Clock simtime.Clock
	// Topology defaults to the full catalog topology: the paper's three
	// platforms (frontier, delta, r3) plus the mixed-shape hetero campus.
	Topology *platform.Topology
	// FastBoot zeroes pilot boot, launch and publish overheads. Use for
	// runs that measure steady-state behaviour (the paper's Exp 2/3, where
	// bootstrap is out of scope).
	FastBoot bool
	// SchedPolicy names the placement policy every pilot's agent
	// scheduler uses ("strict", "backfill", "best-fit"). Empty selects
	// strict.
	SchedPolicy string
	// Router names the session-level task→pilot routing strategy of the
	// TaskManager ("round-robin", "capacity-fit"). Empty
	// selects round-robin, the seed dispatch.
	Router string
	// JournalPath, when set, makes the session durable: every entity
	// description, state transition, placement binding and endpoint
	// registry mutation is appended to a write-ahead journal at this path,
	// and core.Recover can reconstruct the session from it after a client
	// crash. Journaled sessions launch attachable pilots under
	// session-scoped UIDs so recovery can find the survivors.
	JournalPath string
	// JournalFlushEvery overrides the journal's fsync batching interval on
	// the session clock (default 100ms, the journal's own).
	JournalFlushEvery time.Duration
}

// Session is one runtime instance.
type Session struct {
	uid   string
	clock simtime.Clock
	src   *rng.Source
	topo  *platform.Topology
	net   *msgq.Network

	updates *msgq.Publisher

	// jw is the write-ahead journal (nil for volatile sessions);
	// incarnation counts recoveries: 0 volatile, 1 first journaled life,
	// +1 per Recover. Both are fixed before the session is reachable.
	jw          *journal.Writer
	incarnation uint64
	routerName  string

	mu       sync.Mutex
	closed   bool
	fastBoot bool
	schedPol string

	pm *PilotManager
	tm *TaskManager
	sm *ServiceManager
}

// NewSession assembles a runtime session.
func NewSession(cfg SessionConfig) (*Session, error) {
	src := rng.New(cfg.Seed)
	uid := fmt.Sprintf("session.%08x", src.Derive("uid").Uint64()&0xffffffff)
	s, err := assembleSession(uid, cfg.Clock, src, cfg.Topology, nil,
		cfg.FastBoot, cfg.SchedPolicy, cfg.Router)
	if err != nil {
		return nil, err
	}
	if cfg.JournalPath != "" {
		if err := s.attachJournal(cfg.JournalPath, cfg.JournalFlushEvery, cfg.Seed, 1); err != nil {
			_ = s.updates.Close()
			s.net.Close()
			return nil, err
		}
	}
	return s, nil
}

// assembleSession is the one Session assembly, shared by NewSession and
// Recover. Every value a session is built from is a parameter, so a value
// one caller has no source for is a visible argument at its call site
// instead of a silently zero field in a second struct literal. A nil clock
// or topology takes the SessionConfig default; a nil net makes the session
// build its own (Recover passes the survivors' instead). It fails fast on a
// bad policy or router name instead of at the first pilot launch or
// submission.
func assembleSession(uid string, clock simtime.Clock, src *rng.Source, topo *platform.Topology, net *msgq.Network,
	fastBoot bool, schedPolicy, routerName string) (*Session, error) {
	if _, err := scheduler.PolicyByName(schedPolicy); err != nil {
		return nil, err
	}
	// Routers keep per-selection state (the round-robin cursor) and are
	// not safe to share: the task and service managers each get their own
	// instance, which also preserves the seed's independent dispatch
	// sequences.
	rt, err := router.ByName(routerName)
	if err != nil {
		return nil, err
	}
	srt, err := router.ByName(routerName)
	if err != nil {
		return nil, err
	}
	if clock == nil {
		clock = simtime.NewVirtualAuto(DefaultOrigin)
	}
	if topo == nil {
		topo = platform.DefaultTopology()
	}
	if net == nil {
		net = msgq.NewNetwork(clock, src.Derive("net"), topo.Resolver())
	}
	s := &Session{
		uid:        uid,
		clock:      clock,
		src:        src,
		topo:       topo,
		net:        net,
		fastBoot:   fastBoot,
		schedPol:   schedPolicy,
		routerName: routerName,
	}
	if s.updates, err = net.BindPub(updatesAddr); err != nil {
		return nil, fmt.Errorf("core: updates channel already bound (previous client still alive?): %w", err)
	}
	s.pm = &PilotManager{sess: s, pilots: make(map[string]*pilot.Pilot)}
	s.tm = &TaskManager{
		sess:      s,
		placer:    placer{kind: "task", rt: rt},
		uidPrefix: uid + ".task.",
		tasks:     make(map[string]*Task),
		overflow:  make(map[string]*Task),
	}
	s.tm.settled = s.tm.settle
	s.sm = &ServiceManager{
		sess:     s,
		placer:   placer{kind: "service", rt: srt},
		reg:      service.NewEndpointRegistry(),
		services: make(map[string]*Service),
	}
	return s, nil
}

// attachJournal makes the session durable under the given incarnation: it
// opens the write-ahead journal at path for append, writes the opening
// session record and wires the endpoint registry's mutations into the
// journal. The registry fence moves to the incarnation, so publications
// from earlier ones (zombies surviving a recovery) are rejected. It runs
// before the session is reachable.
func (s *Session) attachJournal(path string, flushEvery time.Duration, seed, incarnation uint64) error {
	jw, err := journal.Open(journal.Config{Path: path, Clock: s.clock, FlushEvery: flushEvery})
	if err != nil {
		return err
	}
	if err := jw.Append(journal.KindSession, journal.SessionBody{
		UID: s.uid, Seed: seed, Incarnation: incarnation,
		SchedPolicy: s.schedPol, Router: s.routerName, FastBoot: s.fastBoot,
	}); err != nil {
		_ = jw.Close()
		return err
	}
	s.jw, s.incarnation = jw, incarnation
	s.sm.reg.SetFence(incarnation)
	s.sm.reg.SetObserver(func(op service.EndpointOp, uid string, ep proto.Endpoint, gen uint64) {
		s.journalAppend(journal.KindEndpoint, journal.EndpointBody{
			Op: string(op), UID: uid, Endpoint: ep, Generation: gen,
		})
	})
	return nil
}

// journalAppend appends one record to the session journal (no-op for
// volatile sessions or after the journal crashed). Transitions, task
// descriptions and task binds go through the writer's typed doors instead.
func (s *Session) journalAppend(kind journal.Kind, body any) {
	if s.jw == nil {
		return
	}
	_ = s.jw.Append(kind, body)
}

// Clock returns the session clock.
func (s *Session) Clock() simtime.Clock { return s.clock }

// Network returns the session's communication network.
func (s *Session) Network() *msgq.Network { return s.net }

// Journal returns the session's write-ahead journal writer (nil for
// volatile sessions).
func (s *Session) Journal() *journal.Writer { return s.jw }

// Incarnation returns the session's journal incarnation: 0 for volatile
// sessions, 1 for a journaled session's first life, +1 per recovery.
// Endpoint publications are stamped with it and fenced by the registry.
func (s *Session) Incarnation() uint64 { return s.incarnation }

// PilotManager returns the session's pilot manager.
func (s *Session) PilotManager() *PilotManager { return s.pm }

// TaskManager returns the session's task manager.
func (s *Session) TaskManager() *TaskManager { return s.tm }

// ServiceManager returns the session's service manager.
func (s *Session) ServiceManager() *ServiceManager { return s.sm }

// SubscribeUpdates attaches to the Updater's state-update channel,
// optionally filtered by entity topics ("pilot", "task", "service").
func (s *Session) SubscribeUpdates(buffer int, topics ...string) (*msgq.Subscription, error) {
	return s.net.Subscribe("client", updatesAddr, buffer, topics...)
}

// publish is the Updater: it appends the transitions one To call of an
// entity's machine committed — for journaled sessions — to the write-ahead
// journal with one write, then broadcasts them on the session's update
// channel.
func (s *Session) publish(e states.Entity, uid string, from states.State, steps []states.Record) {
	entity := string(e)
	switch {
	case s.jw == nil:
	case e == states.EntityTask && from == states.TaskNew:
		s.tm.journalFirst(s.jw, uid, from, steps)
	default:
		_ = s.jw.AppendTransitions(entity, uid, from, steps)
	}
	if !s.updates.Subscribed(entity) {
		return
	}
	for _, st := range steps {
		env, err := proto.NewEnvelope(proto.KindStateUpdate, 0, uid, "", st.At, proto.StateUpdate{
			EntityUID: uid, Entity: entity, State: string(st.State), At: st.At,
		})
		if err != nil {
			return
		}
		s.updates.Publish(entity, env)
	}
}

// pilotHooks is the set of session-side observers a pilot of this session
// runs under, launched or adopted.
func (s *Session) pilotHooks(pilotUID string) pilot.Hooks {
	return pilot.Hooks{
		// A pilot's final transition is the last step of its shutdown: the
		// services it still hosted are re-placed by whoever stopped it.
		Transition: func(e states.Entity, uid string, from states.State, steps []states.Record) {
			s.publish(e, uid, from, steps)
			if e == states.EntityPilot && states.PilotModel().IsFinal(steps[len(steps)-1].State) {
				s.sm.pilotDown(uid)
			}
		},
		// Mirror every service endpoint publication into the session
		// EndpointRegistry as part of the publish bootstrap phase, so a
		// ready service is already resolvable session-wide. The pilot UID
		// identifies the publishing incarnation: a straggling publication
		// from a pilot the service has already migrated away from is
		// dropped instead of overwriting the failover re-publication.
		OnServicePublish: func(inst *service.Instance) { s.sm.mirrorPublish(pilotUID, inst) },
	}
}

// RegisterRemote adds a remote (externally managed, e.g. R3-hosted)
// service endpoint to the session. Remote models "are usually persistent
// on dedicated resources and do not need to be bootstrapped" (§IV).
//
// The registration is published into the session EndpointRegistry — the
// single endpoint directory — stamped with the session incarnation, so
// callers discover remote endpoints through exactly the same
// generation-stamped lookup (Resolve, ByModel) as local ones.
func (s *Session) RegisterRemote(ep proto.Endpoint) {
	ep.Incarnation = s.incarnation
	_, _ = s.sm.reg.Publish(ep)
}

// EndpointRegistry returns the session-level endpoint registry: the
// authority mapping stable service UIDs to live, generation-stamped
// endpoints across failover re-placements, and the one directory of
// endpoints by model (ByModel). It lists live endpoints only: a suspended
// service, and a warm standby held under its <uid>.sN address, are not
// handed to callers.
func (s *Session) EndpointRegistry() *service.EndpointRegistry { return s.sm.reg }

// Dial connects a client address to a service endpoint, dispatching on
// the endpoint protocol: msgq endpoints get an in-network client, REST
// endpoints (remote R3-style deployments) get an HTTP-backed caller. Both
// satisfy service.Caller, so client tasks are agnostic to locality. The
// caller is bound to that one address: it does not follow a failover.
func (s *Session) Dial(clientAddr string, ep proto.Endpoint) (service.Caller, error) {
	if ep.Protocol == "rest" {
		return restapi.NewCaller(ep, s.clock)
	}
	return service.Dial(s.net, s.clock, clientAddr, ep)
}

// DialService returns the inference client for a stable service UID. Every
// request resolves through the session EndpointRegistry, so the client
// follows failure-driven re-placements: it re-resolves and redials the
// re-published endpoint instead of erroring into the dead address. Over
// autoscaled replicas, picker spreads requests by each replica server's
// queue, read at the pick; an unscaled service is a group of one and never
// consults it. A nil picker selects power-of-two-choices seeded from the
// session seed and uid.
func (s *Session) DialService(clientAddr, uid string, picker loadbal.Picker) (*service.Balancer, error) {
	dial := func(ep proto.Endpoint) (service.Caller, error) { return s.Dial(clientAddr, ep) }
	if picker == nil {
		picker = loadbal.NewP2C(s.src.Derive("balance." + uid).Uint64())
	}
	return service.NewBalancer(s.sm.reg, uid, dial, service.BalancerOptions{Picker: picker, Now: s.clock.Now})
}

// Close shuts the session down: pilots, services, network. Tasks still
// parked in the TaskManager's overflow pool fail with ErrSessionClosed,
// and the pilot shutdowns fail queued tasks instead of re-routing them.
func (s *Session) Close() {
	if !s.closeManagers() {
		return
	}
	s.pm.shutdownAll()
	s.net.Close()
	if s.jw != nil {
		_ = s.jw.Close()
	}
}

// Abandon simulates the client process dying mid-campaign: the session's
// managers stop (in-flight re-placements settle with ErrSessionClosed,
// overflow tasks fail), the update channel unbinds, and the journal
// crashes — no graceful final fsync, every later append dropped. Unlike
// Close, the pilots and the network stay up: they model remote machines
// that outlive the client, which is exactly what Recover reattaches to.
// Experiment fault injection wires this as the journal's OnCrash callback.
func (s *Session) Abandon() {
	if !s.closeManagers() {
		return
	}
	// Free the updates address so a recovered session can bind it on the
	// same (surviving) network.
	_ = s.updates.Close()
	if s.jw != nil {
		s.jw.Crash()
	}
}

// closeManagers marks the session closed and stops both managers; false
// when a Close or Abandon already did.
func (s *Session) closeManagers() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	s.mu.Unlock()
	s.sm.close()
	s.tm.close()
	return true
}

package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/msgq"
	"repro/internal/pilot"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/states"
)

// RecoverConfig parameterizes crash recovery. Every field is optional.
// When a surviving pilot is found, its clock and network are adopted (the
// recovered client must share the machines' timeline); a recovery with no
// survivors takes NewSession's default clock and topology.
type RecoverConfig struct {
	// FlushEvery overrides the reopened journal's fsync batching interval.
	FlushEvery time.Duration
}

// RecoveryReport accounts for every decision Recover made, by entity UID.
// The exact-count ablation (and any operator) reads it instead of diffing
// journals.
type RecoveryReport struct {
	// SessionUID is the recovered session identity (unchanged across
	// incarnations); Incarnation is the new, post-recovery incarnation.
	SessionUID  string
	Incarnation uint64
	// Stats is the journal replay accounting.
	Stats *journal.ReplayStats

	// PilotsAlive lists surviving pilots the session reattached to;
	// PilotsLost lists journaled pilots that died with (or before) the
	// client.
	PilotsAlive []string
	PilotsLost  []string

	// TasksReattached were found still running (or settled) on a
	// surviving pilot; TasksRerouted lost their pilot and re-entered
	// routing; TasksSettled were already final in the journal — or pinned
	// to a dead pilot, which settles them with pilot.ErrPilotStopped.
	TasksReattached []string
	TasksRerouted   []string
	TasksSettled    []string

	// ServicesReattached were found live on a surviving pilot and had
	// their endpoints re-published under the new incarnation;
	// ServicesReplaced lost their pilot and were re-placed on a survivor;
	// ServicesSettled were withdrawn (or pinned to a dead pilot) and stay
	// down.
	ServicesReattached []string
	ServicesReplaced   []string
	ServicesSettled    []string
}

// Recover reconstructs a journaled session after a client crash. It
// replays the write-ahead journal at journalPath into a snapshot, starts
// a new session incarnation under the journaled identity, reattaches to
// every surviving pilot (rebinding the pilot's session-side hooks to the
// new session), and settles every journaled task and service exactly the
// way the pre-crash session would have had it watched the same events:
//
//   - tasks and services that reached a final state stay final;
//   - work still in flight on a surviving pilot is re-pinned and watched;
//   - work whose pilot died while the client was down re-enters routing
//     over the survivors (pinned work settles with ErrPilotStopped,
//     mirroring live failover semantics);
//   - a binding journaled without a matching pilot-side handle (the
//     client crashed between the bind append and the dispatch) is
//     re-dispatched — the WAL writes intent before action, so the torn
//     step re-runs rather than vanishing.
//
// The new incarnation is journaled+1; the endpoint registry's fence moves
// to it, so a zombie publication stamped by the previous incarnation is
// rejected (service.ErrStaleIncarnation) instead of clobbering a
// re-placed successor. Generation floors from the journal guarantee every
// post-recovery re-publication ranks strictly newer than any endpoint a
// pre-crash client may still hold.
func Recover(journalPath string, cfg RecoverConfig) (*Session, *RecoveryReport, error) {
	snap, stats, err := journal.ReplayFile(journalPath)
	if err != nil {
		return nil, &RecoveryReport{Stats: stats}, err
	}
	if snap.Session.UID == "" {
		return nil, &RecoveryReport{Stats: stats}, errors.New("core: journal holds no session record")
	}
	rep := &RecoveryReport{
		SessionUID:  snap.Session.UID,
		Incarnation: snap.Session.Incarnation + 1,
		Stats:       stats,
	}

	// Find the survivors first: the recovered session must share the
	// surviving pilots' clock and network (they model remote machines that
	// kept running), so session assembly adopts them from the first
	// survivor and only falls back to NewSession's defaults when everything
	// died.
	survivors := make(map[string]*pilot.Pilot)
	for _, ps := range snap.Pilots {
		p, ok := pilot.Lookup(ps.Desc.UID)
		if ok && p.State() == states.PilotActive {
			survivors[ps.Desc.UID] = p
			rep.PilotsAlive = append(rep.PilotsAlive, ps.Desc.UID)
		} else {
			rep.PilotsLost = append(rep.PilotsLost, ps.Desc.UID)
		}
	}

	var clock simtime.Clock
	var net *msgq.Network
	if len(rep.PilotsAlive) > 0 {
		p := survivors[rep.PilotsAlive[0]]
		clock, net = p.Clock(), p.Network()
	}
	// The recovered incarnation derives a fresh RNG stream: the journal
	// does not record how many draws the first life consumed, and replaying
	// the root stream from zero would correlate post-recovery behaviour
	// with already-spent randomness.
	src := rng.New(snap.Session.Seed).Derive(fmt.Sprintf("incarnation.%d", rep.Incarnation))

	// A policy or router name this build does not know (a journal from a
	// newer version) fails here.
	s, err := assembleSession(snap.Session.UID, clock, src, nil, net,
		snap.Session.FastBoot, snap.Session.SchedPolicy, snap.Session.Router)
	if err != nil {
		return nil, rep, err
	}

	// Reopen the journal before touching it: Open refuses a WAL a live
	// writer of this process still appends to (the previous client is not
	// dead), and that refusal must come before the cut below. Then cut the
	// torn tail: the journal appends in O_APPEND mode, and new records
	// written after a torn fragment would be swallowed as that fragment's
	// payload on the next replay (its length prefix spans them), failing
	// every later recovery with ErrChecksum.
	jw, err := journal.Open(journal.Config{Path: journalPath, Clock: s.clock, FlushEvery: cfg.FlushEvery})
	if err != nil {
		return nil, rep, fmt.Errorf("core: recover: %w", err)
	}
	if stats.TornTail {
		if terr := os.Truncate(journalPath, stats.ValidBytes); terr != nil {
			_ = jw.Close()
			return nil, rep, fmt.Errorf("core: recover: truncate torn journal tail: %w", terr)
		}
	}
	if err := s.attachJournal(jw, snap.Session.Seed, rep.Incarnation); err != nil {
		return nil, rep, err
	}

	// Seed registry floors and manager sequence counters from the journal
	// before any re-placement can publish or mint a UID.
	var taskUIDs, svcUIDs []string
	for _, ts := range snap.Tasks {
		taskUIDs = append(taskUIDs, ts.Desc.UID)
	}
	for _, ss := range snap.Services {
		svcUIDs = append(svcUIDs, ss.Desc.UID)
		s.sm.reg.Restore(ss.Desc.UID, ss.Generation, ss.Withdrawn)
	}
	s.tm.seq = journal.MaxSeqSuffix(taskUIDs, s.tm.uidPrefix)
	s.sm.seq = journal.MaxSeqSuffix(svcUIDs, s.uid+".svc.")
	var pilotUIDs []string
	for _, ps := range snap.Pilots {
		pilotUIDs = append(pilotUIDs, ps.Desc.UID)
	}
	for _, ps := range snap.Pilots {
		prefix := fmt.Sprintf("%s.pilot.%s.", s.uid, ps.Desc.Platform)
		if n := journal.MaxSeqSuffix(pilotUIDs, prefix); n > s.pm.seq {
			s.pm.seq = n
		}
	}

	// Adopt the survivors: rebind their session-side hooks to this
	// session's journal and registry mirror, then attach them to
	// the managers. Dead pilots are not resurrected — re-acquiring
	// resources is the operator's call, not Recover's.
	for _, uid := range rep.PilotsAlive {
		p := survivors[uid]
		p.Rebind(s.pilotHooks(uid))
		s.pm.track(p)
		s.tm.AddPilot(p)
		s.sm.AddPilot(p)
	}

	s.recoverTasks(snap, survivors, rep)
	s.recoverServices(snap, survivors, rep)

	for _, uids := range [][]string{rep.PilotsAlive, rep.PilotsLost,
		rep.TasksReattached, rep.TasksRerouted, rep.TasksSettled,
		rep.ServicesReattached, rep.ServicesReplaced, rep.ServicesSettled} {
		sort.Strings(uids)
	}
	return s, rep, nil
}

// recoverTasks re-pins, re-routes or settles every journaled task. Their
// handles come from one slab and go into the task table first, all under
// one hold of its lock. The table keeps every handle until Close, so the
// slab outlives none of them; were settled handles dropped from the table,
// one still held would keep the whole slab.
func (s *Session) recoverTasks(snap *journal.Snapshot, survivors map[string]*pilot.Pilot, rep *RecoveryReport) {
	model := states.ModelFor(states.EntityTask)
	handles := make([]Task, len(snap.Tasks))
	s.tm.mu.Lock()
	s.tm.tasks = make(map[string]*Task, len(snap.Tasks)) // a new session's: empty
	for i, ts := range snap.Tasks {
		s.tm.tasks[ts.Desc.UID] = s.tm.initTask(&handles[i], context.Background(), ts.Desc)
	}
	s.tm.mu.Unlock()
	rep.TasksSettled = make([]string, 0, len(snap.Tasks))

	for i, ts := range snap.Tasks {
		uid, t := ts.Desc.UID, &handles[i]
		if model.IsFinal(ts.State) {
			var err error
			if ts.State != states.TaskDone {
				err = fmt.Errorf("core: task %s was %s before the crash", uid, ts.State)
			}
			t.finish(err)
			rep.TasksSettled = append(rep.TasksSettled, uid)
			continue
		}

		if p, ok := survivors[ts.Pilot]; ok {
			if pt, found := p.Task(uid); found {
				// Still in the surviving pilot's hands: re-pin it. Its
				// completion hook settles it (or re-routes, should this pilot
				// die later) exactly as the first incarnation would have.
				s.tm.follow(t, pt, p)
				rep.TasksReattached = append(rep.TasksReattached, uid)
				continue
			}
			// Bind journaled, dispatch lost: the crash hit between the WAL
			// append and the pilot submission. Re-run the torn step.
		}
		if ts.Desc.Pilot != "" {
			// Pinned semantics survive the crash: the pinned pilot is gone
			// (or never received the task), so the task fails the same way
			// a live pinned failover does.
			t.finish(fmt.Errorf("core: task %s pinned to pilot %s: %w",
				uid, ts.Desc.Pilot, pilot.ErrPilotStopped))
			rep.TasksSettled = append(rep.TasksSettled, uid)
			continue
		}
		s.tm.redispatch(t, false)
		rep.TasksRerouted = append(rep.TasksRerouted, uid)
	}
}

// recoverServices reattaches, re-places or settles every journaled
// service. The only journal-authoritative settle marker is the withdraw
// record: every live settle path (session Terminate, own failure on a
// healthy pilot) withdraws before finishing, so a final instance state
// WITHOUT it means the crash interrupted something — either the settle's
// last append, which reattaching resolves (instanceDown re-derives the
// settle from the live instance), or a dying pilot's graceful teardown,
// which the live session would have answered with a re-placement.
func (s *Session) recoverServices(snap *journal.Snapshot, survivors map[string]*pilot.Pilot, rep *RecoveryReport) {
	for _, ss := range snap.Services {
		uid := ss.Desc.UID
		h := s.sm.newService(ss.Desc)
		s.sm.mu.Lock()
		s.sm.services[uid] = h
		s.sm.mu.Unlock()

		if ss.Withdrawn {
			// Settled for good before the crash. Re-issue the tombstone so
			// the new incarnation's journal and parked resolvers agree.
			var err error
			if ss.State != states.ServiceDone {
				err = fmt.Errorf("core: service %s was %s before the crash", uid, ss.State)
			}
			s.sm.settle(h, err)
			rep.ServicesSettled = append(rep.ServicesSettled, uid)
			continue
		}

		if p, ok := survivors[ss.Pilot]; ok {
			if inst, found := p.Service(uid); found {
				if inst.Endpoint().Address != "" {
					// The instance already published (possibly the very
					// append the crash ate): re-mirror under the new
					// incarnation — the restored generation floor makes
					// this strictly newer than any endpoint a pre-crash
					// client still holds. An instance caught pre-publish
					// publishes through its rebound hook instead. Before
					// install: a final instance settles in it.
					s.sm.mirrorPublish(p.UID(), inst)
				}
				h.install(inst, p, nil)
				rep.ServicesReattached = append(rep.ServicesReattached, uid)
				continue
			}
			// Bind journaled, dispatch lost — fall through to re-placement.
		}
		if ss.Desc.Pilot != "" {
			s.sm.settle(h, fmt.Errorf("core: service %s pinned to pilot %s: %w",
				uid, ss.Desc.Pilot, pilot.ErrPilotStopped))
			rep.ServicesSettled = append(rep.ServicesSettled, uid)
			continue
		}
		// The host died while the client was down (or never got the
		// dispatch): re-place on the survivors, exactly like a live
		// failover — same stable UID, fresh bootstrap, re-publication
		// under the new incarnation.
		inst, p, err := s.sm.replace(h)
		if err != nil {
			s.sm.settle(h, err)
			rep.ServicesSettled = append(rep.ServicesSettled, uid)
			continue
		}
		h.install(inst, p, &h.replacements)
		rep.ServicesReplaced = append(rep.ServicesReplaced, uid)
	}
}

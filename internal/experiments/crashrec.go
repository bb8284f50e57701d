package experiments

// Crash-recovery ablation: the paper's runtime keeps all campaign state in
// the client process, so a client crash strands every pilot, task and
// service it was driving. This ablation quantifies what the write-ahead
// journal and core.Recover buy: a journaled session drives tasks and a
// service across two pilots, the client is killed at one of three fault
// points (mid-transition append — torn record, mid-endpoint-publish —
// lost record, mid-failover — the suspend record of an in-flight
// re-placement is lost), and recovery reattaches to the surviving pilots
// and resumes the campaign. The contrast row runs the identical scenario
// without a journal: the "recovery" finds nothing and the client loses
// every handle. Counts are exact by construction — placements are either
// pinned or follow the deterministic round-robin dispatch, and fault
// points fire on specific journal record kinds.

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/states"
)

// Fault points of the crash-recovery ablation, in the order it drives them.
const (
	// faultMidTransition kills the client while a task state transition is
	// being appended: the record is torn in half, the canonical artifact
	// of a crash mid-write.
	faultMidTransition = "mid-transition"
	// faultMidPublish kills the client while a service endpoint
	// publication is being appended: the record is lost entirely.
	faultMidPublish = "mid-publish"
	// faultMidFailover kills the client while a failover is in flight:
	// the hosting pilot died, and the suspend record of the re-placement
	// never reaches the journal.
	faultMidFailover = "mid-failover"
)

const (
	crashRecTasks = 6 // long-running tasks in flight at the crash
	crashRecSeed  = 27
)

// crashRecRow is one (fault point, journal mode) outcome.
type crashRecRow struct {
	// TasksInFlight is the pre-crash task count (the mid-transition point
	// adds its trigger task).
	TasksInFlight int

	// Recovered reports whether core.Recover produced a session at all
	// (always false for the journal-less contrast).
	Recovered bool
	// Incarnation is the recovered session incarnation (0 when lost).
	Incarnation uint64
	// TornTail reports the replay found a half-written final record.
	TornTail bool

	// Exact recovery accounting (all zero when the journal is absent).
	PilotsAlive, PilotsLost              int
	TasksReattached, TasksRerouted       int
	TasksSettled                         int
	ServicesReattached, ServicesReplaced int
	ServicesSettled                      int

	// TasksCompleted counts tasks that ran to DONE under the recovered
	// session — the resume-N-of-N claim.
	TasksCompleted int
}

// runCrashRec executes the crash-recovery ablation: each fault point once
// with the write-ahead journal and once without.
func runCrashRec(ctx context.Context, o Options) ([]metrics.Table, error) {
	seed := cmp.Or(o.Seed, crashRecSeed)
	t := metrics.Table{
		Title: fmt.Sprintf(
			"Crash-recovery ablation — client killed at three fault points, %d tasks + services across 2 pilots (journal vs none)",
			crashRecTasks),
		Header: []string{"fault point", "journal", "recovered", "incarnation", "torn tail",
			"pilots alive/lost", "tasks reattach/reroute/settle", "svcs reattach/replace/settle", "tasks completed"},
	}
	for _, point := range []string{faultMidTransition, faultMidPublish, faultMidFailover} {
		for _, journaled := range []bool{true, false} {
			row, err := crashRecPoint(ctx, seed, point, journaled)
			if err != nil {
				return nil, fmt.Errorf("experiments: crashrec %s (journal=%v): %w", point, journaled, err)
			}
			mode, rec := "none", "lost"
			if journaled {
				mode = "wal"
			}
			if row.Recovered {
				rec = "yes"
			}
			t.AddRow(point, mode, rec,
				fmt.Sprint(row.Incarnation),
				fmt.Sprint(row.TornTail),
				fmt.Sprintf("%d/%d", row.PilotsAlive, row.PilotsLost),
				fmt.Sprintf("%d/%d/%d", row.TasksReattached, row.TasksRerouted, row.TasksSettled),
				fmt.Sprintf("%d/%d/%d", row.ServicesReattached, row.ServicesReplaced, row.ServicesSettled),
				fmt.Sprintf("%d/%d", row.TasksCompleted, row.TasksInFlight))
		}
	}
	return []metrics.Table{t}, nil
}

// crashRecPoint drives one scenario: two half-platform delta pilots,
// one unpinned service (round-robin lands it on the first pilot),
// crashRecTasks long tasks, then the fault. Task placement is pinned to the
// second pilot for the mid-failover point (whose first pilot dies), and
// left to the deterministic round-robin dispatch otherwise.
func crashRecPoint(ctx context.Context, seed uint64, point string, journaled bool) (row crashRecRow, err error) {
	dir, err := os.MkdirTemp("", "crashrec")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	jp := filepath.Join(dir, "session.wal")

	scfg := core.SessionConfig{Seed: seed, FastBoot: true}
	if journaled {
		scfg.JournalPath = jp
		scfg.JournalFlushEvery = time.Minute
	}
	half := spec.PilotDescription{Platform: "delta", Cores: 128, GPUs: 8}
	err = runTestbed(scfg, []spec.PilotDescription{half, half}, func(tb *testbed) error {
		sess, pilots := tb.Session, tb.pilots
		svc, err := sess.ServiceManager().Submit(hostedService("svc", "noop"))
		if err != nil {
			return err
		}
		if err := tb.wait(func() error { return svc.WaitReady(ctx) }); err != nil {
			return err
		}

		long := rng.ConstDuration(4 * time.Hour)
		descs := make([]spec.TaskDescription, crashRecTasks)
		for i := range descs {
			descs[i] = spec.TaskDescription{Name: fmt.Sprintf("work-%d", i), Cores: 1, Duration: long}
			if point == faultMidFailover {
				// The first pilot dies at this fault point; pinning the fleet
				// to the survivor keeps the reattach count exact instead of
				// racing the old session's own re-routing against the crash.
				descs[i].Pilot = pilots[1].UID()
			}
		}
		// Every task runs before the fault is armed: in-flight grants would
		// otherwise append transitions that race the trigger for the crash
		// record.
		if _, err := tb.submitRunning(ctx, descs...); err != nil {
			return err
		}
		row.TasksInFlight = crashRecTasks

		// Arm the fault and trigger it.
		crashed := make(chan struct{})
		var armed atomic.Bool
		if journaled {
			jw := sess.Journal()
			jw.OnCrash(func() {
				sess.Abandon()
				close(crashed)
			})
			jw.SetCrashHook(func(rec journal.Record) journal.CrashMode {
				if !armed.Load() {
					return journal.NoCrash
				}
				switch point {
				case faultMidTransition:
					if rec.Kind == journal.KindTransition {
						return journal.CrashTorn
					}
				case faultMidPublish:
					if rec.Kind == journal.KindEndpoint && endpointOp(rec) == journal.OpPublish {
						return journal.CrashLost
					}
				case faultMidFailover:
					if rec.Kind == journal.KindEndpoint && endpointOp(rec) == journal.OpSuspend {
						return journal.CrashLost
					}
				}
				return journal.NoCrash
			})
		}
		armed.Store(true)

		var trigger *core.Service
		switch point {
		case faultMidTransition:
			// The trigger task's first state transition is the crash record.
			if _, err := sess.TaskManager().Submit(ctx, spec.TaskDescription{
				Name: "trigger", Cores: 1, Duration: long,
			}); err != nil {
				return err
			}
			row.TasksInFlight++
		case faultMidPublish:
			// A second service's bootstrap publication is the crash record.
			if trigger, err = sess.ServiceManager().Submit(hostedService("svc2", "noop")); err != nil {
				return err
			}
		case faultMidFailover:
			// Kill the service host: the failover's suspend is the crash record.
			if err := pilots[0].Shutdown(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown fault point %q", point)
		}

		// The fault point takes no simulated time to reach (the trigger's
		// bootstrap boots fast), so the driver waits for it holding the clock:
		// the long tasks do not run on meanwhile.
		if journaled {
			<-crashed
		} else {
			// No journal, no fault hook: the client dies at the same logical
			// point, taking all campaign state with it. For mid-publish that
			// point is the trigger service's bootstrap publication, which the
			// journaled run's crash hook waits for too.
			if trigger != nil {
				if _, _, err := sess.EndpointRegistry().AwaitNewer(ctx, trigger.UID(), 0); err != nil {
					return fmt.Errorf("trigger service never published: %w", err)
				}
			}
			sess.Abandon()
		}

		// Recovery. The journal-less contrast recovers from the path its
		// session never wrote: total loss, by construction.
		s2, rep, err := core.Recover(jp, core.RecoverConfig{})
		if err != nil {
			if journaled {
				return err
			}
			return nil // expected: nothing to recover from
		}
		defer s2.Close()
		row.Recovered = true
		row.Incarnation = rep.Incarnation
		row.TornTail = rep.Stats.TornTail
		row.PilotsAlive = len(rep.PilotsAlive)
		row.PilotsLost = len(rep.PilotsLost)
		row.TasksReattached = len(rep.TasksReattached)
		row.TasksRerouted = len(rep.TasksRerouted)
		row.TasksSettled = len(rep.TasksSettled)
		row.ServicesReattached = len(rep.ServicesReattached)
		row.ServicesReplaced = len(rep.ServicesReplaced)
		row.ServicesSettled = len(rep.ServicesSettled)

		// Resume the campaign: every recovered task must run to DONE.
		if err := s2.TaskManager().Wait(ctx); err != nil {
			return fmt.Errorf("post-recovery wait: %w", err)
		}
		for _, t := range s2.TaskManager().Tasks() {
			if t.State() == states.TaskDone {
				row.TasksCompleted++
			}
		}
		return nil
	})
	return row, err
}

// endpointOp decodes the op of a KindEndpoint record ("" on mismatch).
func endpointOp(rec journal.Record) string {
	var b journal.EndpointBody
	if err := json.Unmarshal(rec.Body, &b); err != nil {
		return ""
	}
	return b.Op
}

package experiments

import (
	"context"
	"testing"
)

// TestCrashRecExactCounts drives every (fault point, journal mode) point of
// the ablation and pins every count: placements are deterministic
// (round-robin or pinned), fault points fire on specific record kinds, so
// each row's recovery accounting is exact — no >=1 hedging.
func TestCrashRecExactCounts(t *testing.T) {
	ctx := context.Background()
	point := func(fault string, journaled bool) crashRecRow {
		t.Helper()
		row, err := crashRecPoint(ctx, crashRecSeed, fault, journaled)
		if err != nil {
			t.Fatalf("%s (journal=%v): %v", fault, journaled, err)
		}
		return row
	}

	// Mid-transition: the trigger task's first state transition is torn in
	// half. Replay tolerates the torn tail, the task restarts from its
	// journaled description, and everything reattaches to the two live
	// pilots.
	want := crashRecRow{
		TasksInFlight: crashRecTasks + 1, Recovered: true, Incarnation: 2, TornTail: true,
		PilotsAlive: 2, TasksReattached: crashRecTasks + 1, ServicesReattached: 1,
		TasksCompleted: crashRecTasks + 1,
	}
	if row := point(faultMidTransition, true); row != want {
		t.Errorf("mid-transition: %+v, want %+v", row, want)
	}

	// Mid-publish: the second service's endpoint publication is lost
	// entirely (clean tail). Recovery reattaches it and re-mirrors the
	// endpoint under the new incarnation.
	want = crashRecRow{
		TasksInFlight: crashRecTasks, Recovered: true, Incarnation: 2,
		PilotsAlive: 2, TasksReattached: crashRecTasks, ServicesReattached: 2,
		TasksCompleted: crashRecTasks,
	}
	if row := point(faultMidPublish, true); row != want {
		t.Errorf("mid-publish: %+v, want %+v", row, want)
	}

	// Mid-failover: the service host dies and the crash eats the suspend
	// record. Recovery sees a live-state service bound to a dead pilot and
	// finishes the re-placement the old session never got to.
	want = crashRecRow{
		TasksInFlight: crashRecTasks, Recovered: true, Incarnation: 2,
		PilotsAlive: 1, PilotsLost: 1, TasksReattached: crashRecTasks, ServicesReplaced: 1,
		TasksCompleted: crashRecTasks,
	}
	if row := point(faultMidFailover, true); row != want {
		t.Errorf("mid-failover: %+v, want %+v", row, want)
	}

	// The journal-less contrast loses everything, at every fault point.
	for _, fault := range []string{faultMidTransition, faultMidPublish, faultMidFailover} {
		row := point(fault, false)
		row.TasksInFlight = 0
		if row != (crashRecRow{}) {
			t.Errorf("%s journal-less: nonzero recovery accounting %+v", fault, row)
		}
	}
}

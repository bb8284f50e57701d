package experiments

import "testing"

// TestCrashRecExactCounts reads every (fault point, journal mode) row of the
// ablation and pins every count: placements are deterministic (round-robin
// or pinned), fault points fire on specific record kinds, so each row's
// recovery accounting is exact — no >=1 hedging.
func TestCrashRecExactCounts(t *testing.T) {
	checkRows(t, run(t, "crashrec", Options{})[0].Tables[0], [][]string{
		// Mid-transition: the trigger task's first state transition is torn
		// in half. Replay tolerates the torn tail, the task restarts from its
		// journaled description, and all seven tasks reattach to the two
		// live pilots and complete.
		{faultMidTransition, "wal", "yes", "2", "true", "2/0", "7/0/0", "1/0/0", "7/7"},
		// The journal-less contrast loses everything, at every fault point.
		{faultMidTransition, "none", "lost", "0", "false", "0/0", "0/0/0", "0/0/0", "0/7"},
		// Mid-publish: the second service's endpoint publication is lost
		// entirely (clean tail). Recovery reattaches both services and
		// re-mirrors the endpoint under the new incarnation.
		{faultMidPublish, "wal", "yes", "2", "false", "2/0", "6/0/0", "2/0/0", "6/6"},
		{faultMidPublish, "none", "lost", "0", "false", "0/0", "0/0/0", "0/0/0", "0/6"},
		// Mid-failover: the service host dies and the crash eats the suspend
		// record. Recovery sees a live-state service bound to a dead pilot
		// and finishes the re-placement the old session never got to.
		{faultMidFailover, "wal", "yes", "2", "false", "1/1", "6/0/0", "0/1/0", "6/6"},
		{faultMidFailover, "none", "lost", "0", "false", "0/0", "0/0/0", "0/0/0", "0/6"},
	})
}

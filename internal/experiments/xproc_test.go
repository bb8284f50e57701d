package experiments

import (
	"context"
	"os"
	"testing"

	"repro/internal/router"
	"repro/internal/xproc"
)

// TestMain lets this test binary double as the pilot-agent executable:
// xproc.Spawn re-executes os.Executable() — here, the test binary — with
// RPPILOT_AGENT set, and MaybeRunAgent turns that child into an agent
// before any test runs.
func TestMain(m *testing.M) {
	xproc.MaybeRunAgent()
	os.Exit(m.Run())
}

// TestXprocMatchesInproc pins the determinism contract of the transport
// seam: the route and failover ablations produce identical outcome counts
// whether pilots are goroutines on the in-proc transport or OS processes
// on pooled TCP. Placement timing differs across the wire; outcomes must
// not.
func TestXprocMatchesInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns agent processes")
	}
	o := Options{Platform: defaultPlatform, Requests: xprocRequests, Seed: xprocSeed}
	res, err := xprocRows(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.route) != len(res.routeInproc) || len(res.route) == 0 {
		t.Fatalf("route rows: %d os-process vs %d in-proc", len(res.route), len(res.routeInproc))
	}
	for i, x := range res.route {
		in := res.routeInproc[i]
		if x != in {
			t.Errorf("route %s: os-process %+v != in-proc %+v", x.Router, x, in)
		}
	}

	if len(res.svcFail) != len(res.svcFailInproc) || len(res.svcFail) == 0 {
		t.Fatalf("svcfail rows: %d os-process vs %d in-proc", len(res.svcFail), len(res.svcFailInproc))
	}
	for i, x := range res.svcFail {
		in := res.svcFailInproc[i]
		// Host UIDs and replacement bookkeeping are process- vs
		// session-scoped; the wire-invariant quantities are the counts.
		if x.PreKill != in.PreKill || x.Recovered != in.Recovered ||
			x.Failed != in.Failed || x.Reresolved != in.Reresolved ||
			x.Generation != in.Generation {
			t.Errorf("svcfail %s: os-process %+v != in-proc %+v", x.Client, x, in)
		}
	}

	// The scenario-level acceptance: zero post-failover requests lost by
	// the resolving client, all of them lost by the caching client, and
	// the capacity-fit router running every task the round-robin router
	// fails.
	post := xprocRequests - xprocRequests/2
	for _, row := range res.svcFail {
		switch row.Client {
		case svcFailClientCaching:
			if row.Recovered != 0 || row.Failed != post {
				t.Errorf("caching client: recovered %d failed %d, want 0/%d", row.Recovered, row.Failed, post)
			}
		case svcFailClientResolving:
			if row.Recovered != post || row.Failed != 0 {
				t.Errorf("resolving client: recovered %d failed %d, want %d/0", row.Recovered, row.Failed, post)
			}
		}
	}
	for _, row := range res.route {
		switch row.Router {
		case router.NameCapacityFit:
			if row.FatDone != xprocFatTasks || row.FatFailed != 0 {
				t.Errorf("capacity-fit: fat %d done %d failed, want %d/0", row.FatDone, row.FatFailed, xprocFatTasks)
			}
		case router.NameRoundRobin:
			if row.FatFailed == 0 {
				t.Error("round-robin misroutes no fat tasks; the mismatch scenario is broken")
			}
		}
		if row.ThinDone != xprocThinTasks {
			t.Errorf("%s: thin done %d, want %d", row.Router, row.ThinDone, xprocThinTasks)
		}
	}
}

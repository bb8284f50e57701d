package experiments

import (
	"os"
	"slices"
	"testing"

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
// not. The outcomes are the scenarios' acceptance: capacity-fit runs every
// fat task round-robin fails half of, and the resolving client recovers
// every post-failover request the caching client loses.
func TestXprocMatchesInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns agent processes")
	}
	tabs := run(t, "xproc", Options{})[0].Tables
	for _, tab := range tabs {
		for i := 0; i+1 < len(tab.Rows); i += 2 {
			x, in := tab.Rows[i], tab.Rows[i+1]
			if x[1] != "os-process" || in[1] != "in-proc" || x[0] != in[0] || !slices.Equal(x[2:], in[2:]) {
				t.Errorf("%s: os-process %q != in-proc %q", tab.Title, x, in)
			}
		}
	}
	checkRows(t, tabs[0], [][]string{
		{"round-robin", "os-process", "4/8", "4", "16/16", "0", "0"},
		{"round-robin", "in-proc", "4/8", "4", "16/16", "0", "0"},
		{"capacity-fit", "os-process", "8/8", "0", "16/16", "0", "0"},
		{"capacity-fit", "in-proc", "8/8", "0", "16/16", "0", "0"},
	})
	checkRows(t, tabs[1], [][]string{
		{svcFailClientCaching, "os-process", "8/8", "0/8", "8", "0", "2"},
		{svcFailClientCaching, "in-proc", "8/8", "0/8", "8", "0", "2"},
		{svcFailClientResolving, "os-process", "8/8", "8/8", "0", "1", "2"},
		{svcFailClientResolving, "in-proc", "8/8", "8/8", "0", "1", "2"},
	})
}

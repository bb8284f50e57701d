package experiments

import (
	"context"
	"testing"
)

// TestSvcFailContrastDeterministic pins the ablation's acceptance
// contrast at reduced scale: over an identical mid-stream kill of the
// hosting pilot, the endpoint-caching client recovers 0 post-failover
// requests while the registry-resolving client recovers all of them via
// exactly one re-resolution, with the service re-placed once and its
// endpoint at generation 2.
func TestSvcFailContrastDeterministic(t *testing.T) {
	const requests, killAfter = 8, 4
	rows, err := svcFailRows(context.Background(), Options{Platform: defaultPlatform, Requests: requests, Seed: svcFailSeed})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	post := requests - killAfter
	for _, row := range rows {
		if row.PreKill != killAfter {
			t.Fatalf("%s: pre-kill = %d, want %d", row.Client, row.PreKill, killAfter)
		}
		if row.Replacements != 1 {
			t.Fatalf("%s: replacements = %d, want 1", row.Client, row.Replacements)
		}
		if row.Generation != 2 {
			t.Fatalf("%s: endpoint generation = %d, want 2", row.Client, row.Generation)
		}
		if row.HostAfter == row.HostBefore || row.HostAfter == "" {
			t.Fatalf("%s: host %s → %s — no migration", row.Client, row.HostBefore, row.HostAfter)
		}
		switch row.Client {
		case svcFailClientCaching:
			if row.Recovered != 0 || row.Failed != post {
				t.Fatalf("caching client recovered %d failed %d, want 0/%d", row.Recovered, row.Failed, post)
			}
		case svcFailClientResolving:
			if row.Recovered != post || row.Failed != 0 {
				t.Fatalf("resolving client recovered %d failed %d, want %d/0", row.Recovered, row.Failed, post)
			}
			if row.Reresolved != 1 {
				t.Fatalf("resolving client re-resolved %d times, want 1", row.Reresolved)
			}
		}
	}
}

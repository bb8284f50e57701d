package experiments

import "testing"

// TestSvcFailContrastDeterministic reads the ablation's acceptance contrast:
// over an identical kill of the hosting pilot after 16 of 32 requests, the
// endpoint-caching client recovers none of the 16 post-failover requests
// while the registry-resolving client recovers all of them via exactly one
// re-resolution, with the service re-placed once and its endpoint at
// generation 2.
func TestSvcFailContrastDeterministic(t *testing.T) {
	checkRows(t, run(t, "svcfail", Options{})[0].Tables[0], [][]string{
		{svcFailClientCaching, "16/16", "0/16", "16", "0", "1", "2"},
		{svcFailClientResolving, "16/16", "16/16", "0", "1", "1", "2"},
	})
}

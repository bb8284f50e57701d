package experiments

import "testing"

// TestFragBestFitBeatsFirstFitOnHeteroCampus reads the fragmentation
// ablation on the catalog's mixed platform (32 fat, 96 thin nodes): under
// identical workloads best-fit grants every large (whole-fat-node) task and
// leaves nothing waiting, while first-fit lets 96 thin-shaped smalls
// fragment 12 fat nodes (8×16c each). Neither policy loses a small grant.
func TestFragBestFitBeatsFirstFitOnHeteroCampus(t *testing.T) {
	checkRows(t, run(t, "frag", Options{})[0].Tables[0], [][]string{
		{"strict", "96/96", "20/32", "12", "0.727", "0.625"},
		{"best-fit", "96/96", "32/32", "0", "1.000", "1.000"},
	})
}

// TestFragChurnBestFitWinSurvivesTurnover reads the steady-state variant:
// 48 permanent smalls, 48 transient ones, then 2 waves of 24 arrivals
// behind the larges. First-fit keeps 6 fat nodes pinned by permanent
// holders, so 26 of 32 larges run once the transients drain, and its
// ungrantable large head blocks every arriving wave. Best-fit still runs
// every large and every arriving small.
func TestFragChurnBestFitWinSurvivesTurnover(t *testing.T) {
	checkRows(t, run(t, "frag", Options{Churn: true})[0].Tables[0], [][]string{
		{"strict", "96/144", "26/32", "54", "0.727", "0.812"},
		{"best-fit", "144/144", "32/32", "0", "0.864", "1.000"},
	})
}

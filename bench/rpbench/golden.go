package main

import (
	_ "embed"
	"encoding/json"
)

// golden.json pins outputs that are exact functions of the inputs: the
// steady campaign's simulated latencies at the default seed, and the
// number of journal records a task campaign writes (the same for every
// seed). A change that moves one of them has changed what the program
// computes, not how fast; it must say so and re-pin the value.
//
//go:embed golden.json
var goldenJSON []byte

type goldenValues struct {
	Seed           uint64 `json:"seed"`
	CampaignSteady struct {
		Requests int     `json:"requests"`
		LatP50US float64 `json:"lat_p50_us"`
		LatP90US float64 `json:"lat_p90_us"`
	} `json:"campaign_steady"`
	// Journal pins how many records a journaled task campaign writes:
	// RecordsPerTask for each task (description, binding, one per state
	// transition) plus RecordsFixed for the session and its two pilots.
	Journal struct {
		RecordsPerTask int `json:"records_per_task"`
		RecordsFixed   int `json:"records_fixed"`
	} `json:"journal"`
}

var golden = func() goldenValues {
	var g goldenValues
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("rpbench: golden.json: " + err.Error())
	}
	return g
}()

// journalRecords is the exact number of records a campaign of n tasks
// leaves in the WAL.
func journalRecords(n int) int64 {
	return int64(golden.Journal.RecordsPerTask*n + golden.Journal.RecordsFixed)
}

// checkGolden compares the steady campaign's simulated latencies with the
// pinned values, at the pinned seed and round size: a miss by more than
// simReplayTolerance fails the run, and whether they match to the digit is
// noted.
func checkGolden(res *Result, cfg runConfig, ph *phase) {
	g := golden.CampaignSteady
	if res.Workload != "campaign_steady" || cfg.Smoke || cfg.Seed != golden.Seed || g.Requests != campaignRequests {
		return
	}
	if !withinRel(ph.latP50, g.LatP50US, simReplayTolerance) || !withinRel(ph.latP90, g.LatP90US, simReplayTolerance) {
		res.violate("seed %d: sim p50/p90 %v/%v us, golden.json pins %v/%v (tolerance %v)",
			cfg.Seed, ph.latP50, ph.latP90, g.LatP50US, g.LatP90US, simReplayTolerance)
	}
	res.Notes["sim_equals_golden"] = ph.latP50 == g.LatP50US && ph.latP90 == g.LatP90US
}

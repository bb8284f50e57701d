package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/loadgen"
)

const (
	// campaignRequests is the fixed size of one campaign round, about a
	// third of a second of wall time. A run repeats the identical campaign
	// (same seed, so the same inputs) until its time is up, samples the
	// host's speed between rounds and reports the median round.
	campaignRequests = 25000
	// campaignSetups is how many times the one-request scenario runs to
	// time set-up; the first also warms the process. A set-up is about a
	// millisecond, so many are needed for a steady median.
	campaignSetups = 101
	// simReplayTolerance is how far, as a share, the steady campaign's
	// simulated quantiles may stray from round 0's, and at the pinned seed
	// from golden.json, before the run fails: the relative accuracy the
	// repository's own latency sketch promises. On the two-core host they
	// replay to the digit (0 of 2 500 rounds differed), but ROADMAP aim 3
	// says exact replay is not established on hosts with more cores, and a
	// benchmark must not fail on which host it runs.
	simReplayTolerance = 0.01
)

// withinRel reports whether got is within the share tol of want.
func withinRel(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// campaignScenario returns the scenario behind a campaign workload.
// Neither enables the autoscaler (MaxReplicas stays 0): see README, hazard 1.
// KeepSamples retains every latency, so that quantiles are exact: the
// sketch's quantiles are bucket midpoints and read the same for every seed.
func campaignScenario(workload string, seed uint64, requests int) loadgen.Scenario {
	switch workload {
	case "campaign_steady":
		return loadgen.Scenario{
			Name: workload, Kind: loadgen.KindSteady, Requests: requests, Rate: 2000,
			Services: 4, Concurrency: 1, Seed: seed, TaskEvery: 1000, KeepSamples: true,
		}
	case "campaign_batched":
		return loadgen.Scenario{
			Name: workload, Kind: loadgen.KindHotspot, HotspotWeight: 0.8, Balance: "p2c",
			Requests: requests, Rate: 8000, Services: 4, Model: "vit-base",
			Concurrency: 2, MaxBatch: 8, MaxTokens: 8, QueueCap: 200000, Seed: seed, KeepSamples: true,
		}
	}
	panic("rpbench: not a campaign workload: " + workload)
}

// simQuantilesUS returns exact quantiles of a round's simulated latencies,
// in microseconds. It sorts samples in place.
func simQuantilesUS(samples []time.Duration, qs ...float64) []float64 {
	sortDurations(samples)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = durQuantileUS(samples, q)
	}
	return out
}

// measureCampaign times set-up with one-request campaigns, then repeats the
// full campaign for the given time.
func measureCampaign(workload string, cfg runConfig, seconds float64, tr *Tracer, hp *hostProbe) (*phase, error) {
	ctx := context.Background()
	ph := newPhase()
	requests := cfg.scaled(campaignRequests)

	var setups []float64
	hp.Sample()
	for i := 0; i < cfg.reps(campaignSetups); i++ {
		var res *loadgen.Result
		var err error
		tr.Do("loadgen.Run.setup", 0, func() {
			res, err = loadgen.Run(ctx, campaignScenario(workload, cfg.Seed, 1))
		})
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		setups = append(setups, res.Wall.Seconds())
	}
	ph.rawSetupS = median(setups)
	ph.setupS = ph.rawSetupS / hp.Lap()

	sampler := startGoroutineSampler()
	var p50, p90, p99 []float64
	var first *loadgen.Result
	inexact := 0 // steady rounds whose sim quantiles are not round 0's to the digit
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < seconds; round++ {
		before := readCounters()
		var res *loadgen.Result
		var err error
		tr.Do("loadgen.Run", 0, func() {
			res, err = loadgen.Run(ctx, campaignScenario(workload, cfg.Seed, requests))
		})
		if err != nil {
			return nil, fmt.Errorf("campaign round %d: %w", round, err)
		}
		ph.counters = ph.counters.add(readCounters().sub(before))
		ph.addRound(float64(res.Completed)/res.Wall.Seconds(), hp.Lap())
		ph.attempted += res.Offered
		ph.completed += res.Completed
		ph.failed += res.Failed
		ph.wall += res.Wall

		if res.Offered != int64(requests) || res.Completed+res.Failed != res.Offered {
			ph.violate("round %d: offered %d completed %d failed %d of %d requests",
				round, res.Offered, res.Completed, res.Failed, requests)
		}
		if res.Failed != 0 {
			ph.violate("round %d: %d requests failed", round, res.Failed)
		}
		if res.TasksDone != res.TasksSubmitted {
			ph.violate("round %d: %d of %d side tasks done", round, res.TasksDone, res.TasksSubmitted)
		}
		q := simQuantilesUS(res.Samples, 0.5, 0.9, 0.99)
		p50, p90, p99 = append(p50, q[0]), append(p90, q[1]), append(p99, q[2])
		if first == nil {
			first = res
		}
		// On the steady campaign the clock is virtual, the seed fixed and
		// every queue empty, so each round should see the same simulated
		// latencies as round 0. Whether it sees exactly the same depends on
		// the host (README, hazard 3), so a round that does not replay to
		// the digit is counted and reported; one that strays by more than
		// simReplayTolerance computed something else and fails the run.
		// The batched campaign does not replay exactly even on two cores,
		// so it is not held to it.
		if workload == "campaign_steady" {
			ref := []float64{p50[0], p90[0], p99[0]}
			for k := range q {
				if !withinRel(q[k], ref[k], simReplayTolerance) {
					ph.violate("round %d: sim p50/p90/p99 %v differ from round 0's %v by more than %v", round, q, ref, simReplayTolerance)
					break
				}
			}
			if q[0] != ref[0] || q[1] != ref[1] || q[2] != ref[2] {
				inexact++
			}
		}
	}
	ph.goroutinesPeak = sampler.Stop()
	// Simulated time: the host's speed does not enter.
	ph.latP50, ph.latP90 = median(p50), median(p90)
	ph.rawLatP50, ph.rawLatP90 = ph.latP50, ph.latP90

	simS := first.Duration.Seconds()
	ph.extra["loadgen.sim_makespan_s"] = simS
	ph.extra["loadgen.sim_speedup"] = simS * median(ph.rawRounds) / float64(requests)
	ph.extra["loadgen.sim_p99_us"] = median(p99)
	ph.simInexactRounds = inexact
	ph.extra["service.reresolved"] = float64(first.Reresolved)
	ph.extra["metrics.sketch_bytes"] = float64(first.SketchBytes)
	return ph, nil
}

package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// phase is what one measured phase of a workload yields, before it is
// turned into named metrics. Wall-clock figures are kept both as measured
// (raw*) and scaled to the reference host speed (see calib.go); the scaled
// ones are reported, the raw ones recorded beside them.
type phase struct {
	attempted, completed, failed int64
	wall                         time.Duration // summed wall time of the measured ops
	setupS, rawSetupS            float64       // median set-up time
	// rawRounds is each round's (or slice's) ops/s as measured, slowdowns
	// the host slowdown around it.
	rawRounds, slowdowns []float64
	latP50, latP90       float64 // microseconds
	rawLatP50, rawLatP90 float64
	counters             procCounters // deltas over the measured ops
	goroutinesPeak       int
	// simInexactRounds counts the steady campaign's rounds whose simulated
	// quantiles were not round 0's to the digit.
	simInexactRounds int
	violations       []string
	// extra holds per-layer metrics the workload itself measured, by name.
	extra map[string]float64
}

func newPhase() *phase { return &phase{extra: make(map[string]float64)} }

func (p *phase) violate(format string, args ...any) {
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

// addRound records one round's rate and the host slowdown around it.
func (p *phase) addRound(opsPerS, slowdown float64) {
	p.rawRounds = append(p.rawRounds, opsPerS)
	p.slowdowns = append(p.slowdowns, slowdown)
}

// opsPerS is the median over rounds of the rate at reference host speed.
func (p *phase) opsPerS() float64 {
	scaled := make([]float64, len(p.rawRounds))
	for i, r := range p.rawRounds {
		scaled[i] = r * p.slowdowns[i]
	}
	return median(scaled)
}

// measureFunc runs one workload's set-up and measured phase. tr is nil
// when tracing is off.
type measureFunc func(cfg runConfig, seconds float64, tr *Tracer, hp *hostProbe) (*phase, error)

func measureFor(workload string) measureFunc {
	switch workload {
	case "campaign_steady", "campaign_batched":
		return func(cfg runConfig, s float64, tr *Tracer, hp *hostProbe) (*phase, error) {
			return measureCampaign(workload, cfg, s, tr, hp)
		}
	case "tcp_small", "tcp_large":
		return func(cfg runConfig, s float64, tr *Tracer, hp *hostProbe) (*phase, error) {
			return measureTCP(workload, cfg, s, tr, hp)
		}
	case "task_journal":
		return measureTaskJournal
	case "task_recover":
		return measureTaskRecover
	}
	return nil
}

// runWorkload runs one workload as the driver asks for it: end-to-end
// metrics with tracing off, or per-layer metrics from a traced run.
func runWorkload(workload string, cfg runConfig) (*Result, error) {
	measure := measureFor(workload)
	if measure == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	hp := newHostProbe()
	defer hp.Close()
	res := newResult(workload, cfg)
	if !cfg.Trace {
		ph, err := measure(cfg, cfg.Seconds, nil, hp)
		if err != nil {
			return nil, err
		}
		res.take(ph)
		res.put("setup_s", ph.setupS)
		res.put("ops_per_s", ph.opsPerS())
		res.put("lat_p50_us", ph.latP50)
		res.put("lat_p90_us", ph.latP90)
		res.put("allocs_per_op", float64(ph.counters.mallocs)/float64(ph.completed))
		res.put("peak_rss_mb", peakRSSMB(strings.HasPrefix(workload, "tcp_")))
		res.Notes["as_measured"] = map[string]float64{
			"setup_s": ph.rawSetupS, "ops_per_s": median(ph.rawRounds),
			"lat_p50_us": ph.rawLatP50, "lat_p90_us": ph.rawLatP90,
		}
		checkGolden(res, cfg, ph)
		res.finish()
		return res, nil
	}

	// Traced run: half the time untraced, half traced, so the overhead of
	// tracing is measured in the same process; then the probes. Per-layer
	// figures are as measured, not scaled: they are compared with each
	// other and with 1e6/ops_per_s of the same run, not across runs.
	plain, err := measure(cfg, cfg.Seconds/2, nil, hp)
	if err != nil {
		return nil, err
	}
	tr := newTracer(workload)
	ph, err := measure(cfg, cfg.Seconds/2, tr, hp)
	if err != nil {
		return nil, err
	}
	res.take(ph)
	res.Violations = append(res.Violations, plain.violations...)
	for name, v := range ph.extra {
		res.put(name, v)
	}
	ops := float64(ph.completed)
	res.put("proc.cpu_us_per_op", float64(ph.counters.cpu)/1e3/ops)
	res.put("proc.bytes_per_op", float64(ph.counters.allocBytes)/ops)
	res.put("proc.gc_cycles", float64(ph.counters.gcCycles))
	res.put("proc.gc_pause_ms", float64(ph.counters.gcPauseNs)/1e6)
	res.put("proc.goroutines_peak", float64(ph.goroutinesPeak))
	res.put("proc.heap_inuse_mb_end", heapInuseMB())
	res.put("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	res.put("proc.trace_overhead_pct", 100*(1-ph.opsPerS()/plain.opsPerS()))
	res.put("proc.host_slowdown", median(hp.samples))

	probes := runProbes(workload, cfg)
	for name, v := range probes.out {
		res.put(name, v)
	}
	res.Violations = append(res.Violations, probes.fails...)
	addBudget(res, workload, median(ph.rawRounds))

	res.Notes["spans"] = tr.Summary()
	if cfg.Spans != "" {
		counts := make(map[string]float64, len(res.Metrics))
		for name, m := range res.Metrics {
			counts[name] = m.Value
		}
		if err := tr.WriteFile(cfg.Spans, cfg.Seed, counts); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res.finish()
	return res, nil
}

// take copies a phase's op counts, violations and raw record into the result.
func (r *Result) take(ph *phase) {
	r.Attempted, r.Completed, r.Failed = ph.attempted, ph.completed, ph.failed
	r.Violations = append(r.Violations, ph.violations...)
	r.Notes["rounds"] = len(ph.rawRounds)
	r.Notes["measured_wall_s"] = ph.wall.Seconds()
	r.Notes["round_ops_per_s"] = ph.rawRounds
	r.Notes["round_host_slowdown"] = ph.slowdowns
	if r.Workload == "campaign_steady" {
		r.Notes["sim_rounds_not_replayed_exactly"] = ph.simInexactRounds
	}
	if ph.failed != 0 {
		r.violate("%d of %d ops failed", ph.failed, ph.attempted)
	}
}

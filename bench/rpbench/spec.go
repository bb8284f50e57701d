package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is the single definition of the benchmark: its workloads, its
// metrics, their units and bounds, and the predictions of which end-to-end
// metric each layer metric should move. BENCHMARK.json at the repository
// root is generated from it (rpbench -spec) and main_test.go checks the two
// agree; -list, -compare and the run itself read these tables.

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Loop says how load is offered, for -list and the README.
	Loop string
}

var workloads = []workloadDef{
	{
		Name: "campaign_steady",
		Why:  "open-loop noop campaign with empty queues: the simulation substrate (virtual clock, goroutine per request, inproc msgq, resolver, metrics) does nearly all the work",
		Loop: "open loop, Poisson 2000 req/s sim, 25000 requests per round, 4 noop services (Concurrency 1, no batching), a task every 1000th arrival, virtual auto clock",
	},
	{
		Name: "campaign_batched",
		Why:  "open-loop vit-base campaign with a standing queue: batched serving, llm batches on the clock, p2c balancer and load reports; guards the batched path against empty-queue tuning",
		Loop: "open loop, Poisson 8000 req/s sim with 80% hotspot skew through a p2c balancer, 25000 requests per round, 4 vit-base services, Concurrency 2, MaxBatch 8, MaxTokens 8, QueueCap 200000",
	},
	{
		Name: "tcp_small",
		Why:  "closed-loop 64 B requests to a noop service in a second OS process over real TCP: framing and syscall cost dominate, virtual clock and loadgen do nothing",
		Loop: "closed loop, 2 clients with one connection each, 64 B prompt, one agent process (delta, noop service, Concurrency 2), one-second slices",
	},
	{
		Name: "tcp_large",
		Why:  "same transport with 8 KiB prompts: JSON body encode, frame copy and pooled buffers dominate; splits payload-bound from per-message gains",
		Loop: "closed loop, 2 clients with one connection each, 8 KiB prompt, otherwise as tcp_small",
	},
	{
		Name: "task_journal",
		Why:  "journaled HPC task stream through core managers, router, pilot, scheduler and executor: the write-ahead journal is most of the per-task cost, msgq and serving do nothing",
		Loop: "closed loop, 4000 Func tasks per round (Cores 1 + i%4) submitted in chunks of 512, then Wait; fresh journaled session per round, two 32-node hetero pilots, round-robin router",
	},
	{
		Name: "task_recover",
		Why:  "core.Recover on the WAL a 2000-task journaled campaign wrote, again and again: an append-side gain that fattens or slows replay shows here, not in task_journal",
		Loop: "one recovery at a time of the same 16007-record WAL; an op is one journaled task restored, the latency is one whole recovery",
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves says, for a per-layer metric, which end-to-end metric on which
	// workload it should move; for an end-to-end metric, what it is.
	Moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"wall time until the first measured op can be issued, median of several set-ups in the run, at reference host speed: a one-request campaign; spawn agent, service ACTIVE, clients dialed and warmed; session with pilots attached; writing the WAL to recover"},
	{"ops_per_s", "op/s", "higher", 0.25,
		"completed ops per wall second at reference host speed, median over the run's rounds (campaign_*, task_*) or one-second slices (tcp_*); on campaigns this is simulated requests per host second"},
	{"lat_p50_us", "us", "lower", 0.25,
		"median latency of one op as its client sees it: simulated request latency (campaign_*: exact quantile of a round, median round, not scaled); wall Infer latency (tcp_*), wall time from the Submit call to the payload's start (task_journal), wall time of one whole recovery (task_recover), these at reference host speed"},
	{"lat_p90_us", "us", "lower", 0.25,
		"90th percentile of the same latency; p99 moved 25% between identical tcp runs on a shared host, so p90 is the gated tail and p99 a per-layer metric"},
	{"allocs_per_op", "count", "lower", 0.02,
		"heap allocations of the rpbench process per completed op over the measured phase (driver side only on tcp_*: the agent is another process)"},
	{"peak_rss_mb", "MB", "lower", 0.25,
		"getrusage max RSS of the rpbench process at workload end, plus the largest agent child on tcp_*; each workload runs in its own process"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repository's packages. A layer off a workload's path reads 0 there.
var perLayer = []metricDef{
	{"simtime.sleep_wake_ns", "ns", "lower", 0, "ops_per_s on campaign_steady and campaign_batched; nothing on tcp_*, task_*"},
	{"simtime.go_spawn_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"simtime.timer_ns", "ns", "lower", 0, "ops_per_s on campaign_batched (batch linger timers)"},

	{"loadgen.poisson_next_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"loadgen.sim_makespan_s", "s", "lower", 0, "count: simulated span of one round; moves only if the modelled system changes"},
	{"loadgen.sim_speedup", "x", "higher", 0, "simulated seconds per wall second; ops_per_s on campaign_*"},
	{"loadgen.sim_p99_us", "us", "lower", 0, "simulated p99, exact for a seed; lat_p90_us on campaign_* moves with it"},

	{"service.resolver_infer_ns", "ns", "lower", 0, "ops_per_s on campaign_steady"},
	{"service.balancer_pick_ns", "ns", "lower", 0, "ops_per_s on campaign_batched only"},
	{"service.registry_resolve_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"service.registry_report_load_ns", "ns", "lower", 0, "ops_per_s on campaign_batched only (4 reports per arrival)"},
	{"service.registry_publish_ns", "ns", "lower", 0, "setup_s on campaign_*"},
	{"service.reresolved", "count", "lower", 0, "count from Result: resolver re-resolutions; 0 unless endpoints fail"},

	{"loadbal.p2c_pick_ns", "ns", "lower", 0, "ops_per_s on campaign_batched"},
	{"loadbal.round_robin_pick_ns", "ns", "lower", 0, "ops_per_s on campaign_batched if the picker is swapped"},

	{"msgq.inproc_request_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"msgq.inproc_allocs", "count", "lower", 0, "allocs_per_op on campaign_*"},
	{"msgq.tcp_rtt_us_64B", "us", "lower", 0, "ops_per_s, lat_p50_us, lat_p90_us on tcp_small"},
	{"msgq.tcp_rtt_us_8KiB", "us", "lower", 0, "ops_per_s, lat_p50_us, lat_p90_us on tcp_large"},
	{"msgq.tcp_rtt_us_contended", "us", "lower", 0, "lat_p90_us on tcp_* (2 goroutines, one connection, 1 KiB)"},
	{"msgq.tcp_allocs_per_rtt", "count", "lower", 0, "allocs_per_op on tcp_*"},
	{"msgq.publish_fanout_ns", "ns", "lower", 0, "setup_s (state updates and endpoint publication, 4 subscribers)"},

	{"proto.envelope_new_ns_64B", "ns", "lower", 0, "ops_per_s on tcp_small and campaign_*"},
	{"proto.envelope_new_ns_8KiB", "ns", "lower", 0, "ops_per_s on tcp_large"},
	{"proto.append_frame_ns_8KiB", "ns", "lower", 0, "ops_per_s on tcp_large"},
	{"proto.decode_frame_ns_8KiB", "ns", "lower", 0, "ops_per_s on tcp_large"},
	{"proto.envelope_decode_ns_8KiB", "ns", "lower", 0, "ops_per_s on tcp_large"},

	{"serving.submit_ns", "ns", "lower", 0, "ops_per_s on campaign_steady and tcp_*"},
	{"serving.submit_batched_ns_per_req", "ns", "lower", 0, "ops_per_s and lat_p90_us on campaign_batched"},
	{"serving.processed", "count", "higher", 0, "count: requests the probe servers processed"},
	{"serving.rejected", "count", "lower", 0, "count: requests the probe servers refused (queue full)"},
	{"serving.deduped", "count", "lower", 0, "count: duplicate request UIDs the probe servers answered from cache"},

	{"llm.infer_noop_ns", "ns", "lower", 0, "ops_per_s on campaign_steady and tcp_*"},
	{"llm.infer_vit_ns", "ns", "lower", 0, "ops_per_s on campaign_batched; not campaign_steady"},
	{"llm.infer_batch8_ns_per_item", "ns", "lower", 0, "ops_per_s on campaign_batched"},
	{"llm.generate_text_ns", "ns", "lower", 0, "ops_per_s on campaign_batched"},

	{"metrics.sketch_observe_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"metrics.sketch_quantile_ns", "ns", "lower", 0, "nothing gated: read once per round"},
	{"metrics.series_completed_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"metrics.series_offered_ns", "ns", "lower", 0, "ops_per_s on campaign_*"},
	{"metrics.sketch_bytes", "count", "lower", 0, "count: merged latency sketch footprint; peak_rss_mb on campaign_*"},

	{"scheduler.submit_grant_release_ns", "ns", "lower", 0, "ops_per_s on task_journal; setup_s elsewhere"},
	{"scheduler.backfill_grant_ns_depth16", "ns", "lower", 0, "ops_per_s on task_journal if the policy is swapped"},
	{"scheduler.backfill_grant_ns_depth4096", "ns", "lower", 0, "ops_per_s on task_journal under a deep wait pool"},
	{"scheduler.snapshot_ns", "ns", "lower", 0, "ops_per_s on task_journal with a load-aware router"},

	{"router.round_robin_ns", "ns", "lower", 0, "ops_per_s on task_journal"},
	{"router.capacity_fit_ns", "ns", "lower", 0, "ops_per_s on task_journal if the router is swapped"},

	{"pilot.task_lifecycle_us", "us", "lower", 0, "ops_per_s on task_journal"},
	{"pilot.launch_ms", "ms", "lower", 0, "setup_s on every workload"},
	{"executor.execute_ns", "ns", "lower", 0, "ops_per_s on task_journal"},

	{"journal.append_ns", "ns", "lower", 0, "ops_per_s on task_journal (x records_per_task, serialised on the writer)"},
	{"journal.records_per_task", "count", "lower", 0, "count: ops_per_s on task_journal, lat_p50_us on task_recover"},
	{"journal.bytes_per_task", "count", "lower", 0, "count: lat_p50_us on task_recover"},
	{"journal.appends", "count", "lower", 0, "count from Writer.Stats over one round"},
	{"journal.fsyncs", "count", "lower", 0, "count from Writer.Stats over one round"},
	{"journal.records", "count", "lower", 0, "count: records one recovery replays"},
	{"journal.replay_us_per_record", "us", "lower", 0, "lat_p50_us and ops_per_s on task_recover"},
	{"journal.skipped_bytes", "count", "lower", 0, "count: bytes of the WAL replay did not accept; must be 0"},

	{"core.session_new_ms", "ms", "lower", 0, "setup_s on every workload"},
	{"core.pilot_submit_ms", "ms", "lower", 0, "setup_s on every workload"},
	{"core.service_ready_ms", "ms", "lower", 0, "setup_s on campaign_* and tcp_*"},
	{"core.task_submit_us_per_op", "us", "lower", 0, "ops_per_s and lat_p50_us on task_journal"},
	{"core.task_drain_us_per_op", "us", "lower", 0, "ops_per_s on task_journal"},
	{"core.task_nojournal_us_per_op", "us", "lower", 0, "the same stream without a journal: what is left of task_journal's op cost"},
	{"core.recover_reconcile_s", "s", "lower", 0, "lat_p50_us on task_recover (Recover minus ReplayFile)"},

	{"xproc.spawn_ms", "ms", "lower", 0, "setup_s on tcp_*"},
	{"xproc.ping_rtt_us", "us", "lower", 0, "setup_s on tcp_* (control channel)"},
	{"xproc.svc_bootstrap_ms", "ms", "lower", 0, "setup_s on tcp_*"},
	{"xproc.shutdown_ms", "ms", "lower", 0, "nothing gated: teardown"},

	{"rt.communication_us_p50", "us", "lower", 0, "lat_p50_us on tcp_*: transport share"},
	{"rt.service_us_p50", "us", "lower", 0, "lat_p50_us on tcp_*: queueing and parsing share"},
	{"rt.inference_us_p50", "us", "lower", 0, "lat_p50_us on tcp_*: model share"},
	{"rt.lat_p99_us", "us", "lower", 0, "reported, too noisy to gate"},
	{"rt.lat_p999_us", "us", "lower", 0, "reported, too noisy to gate"},

	{"proc.cpu_us_per_op", "us", "lower", 0, "user+sys per op (agent included on tcp_*); far above 1e6/ops_per_s x cores flags spinning"},
	{"proc.bytes_per_op", "count", "lower", 0, "allocs_per_op, peak_rss_mb"},
	{"proc.gc_cycles", "count", "lower", 0, "ops_per_s everywhere"},
	{"proc.gc_pause_ms", "ms", "lower", 0, "lat_p90_us on tcp_*"},
	{"proc.goroutines_peak", "count", "lower", 0, "peak_rss_mb; sampled every 100 ms"},
	{"proc.heap_inuse_mb_end", "MB", "lower", 0, "peak_rss_mb"},
	{"proc.gomaxprocs", "count", "higher", 0, "recorded, left at its default"},
	{"proc.trace_overhead_pct", "%", "lower", 0, "traced ops_per_s against untraced in the same run"},
	{"proc.host_slowdown", "x", "lower", 0, "median hand-off kernel time over the reference (calib.go): how slow the host ran; scales every wall-clock end-to-end metric"},

	{"budget.attributed_us_per_op", "us", "lower", 0, "sum of probe cost x calls per op on campaign_* and task_journal"},
	{"budget.unattributed_us_per_op", "us", "lower", 0, "1e6/ops_per_s minus the attributed part: goroutine, scheduler and wake-up cost"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("rpbench: metric " + name + " is not defined in spec.go")
}

// benchmarkJSON renders BENCHMARK.json in the builder-contract schema.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// listing renders -list: every workload, metric, unit and bound.
func listing() string {
	var sb strings.Builder
	sb.WriteString("workloads (one run measures for -seconds, default 10):\n")
	for _, w := range workloads {
		fmt.Fprintf(&sb, "  %-17s %s\n  %-17s why: %s\n", w.Name, w.Loop, "", w.Why)
	}
	sb.WriteString("\nend-to-end metrics (tracing off, every workload):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&sb, "  %-15s %-6s %-6s bound %4.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Moves)
	}
	sb.WriteString("\nper-layer metrics (traced run; 0 where the layer is off the workload's path):\n")
	for _, m := range perLayer {
		fmt.Fprintf(&sb, "  %-38s %-6s %-6s moves: %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
	return sb.String()
}

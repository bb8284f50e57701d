package main

// The budget sums, per op, the cost of the layers a request or task passes
// through: each term is a probe's per-call cost times the number of such
// calls one op makes, read off the request path (bench/README.md walks
// through it). What the sum leaves of 1e6/ops_per_s is unattributed: the
// goroutine switches, scheduler wake-ups and cache misses that only appear
// when the layers run together.

type budgetTerm struct {
	Metric string  // per-layer metric holding the per-call cost
	Calls  float64 // calls per op; recordsPerTask marks "journal records per task"
	Why    string
}

// recordsPerTask is a placeholder multiplicity resolved at run time from
// journal.records_per_task.
const recordsPerTask = -1

var budgets = map[string][]budgetTerm{
	// One steady request: the driver sleeps the arrival gap, spawns the
	// request goroutine, and the request runs resolver → client → inproc
	// msgq → serving → noop backend, with four modelled delays (two hops,
	// two halves of the parse overhead) that each cost a virtual sleep.
	// resolver_infer_ns already contains registry resolve, envelope
	// construction, the inproc round trip, serving submit and the noop
	// model, so those are not added again.
	"campaign_steady": {
		{"loadgen.poisson_next_ns", 1, "one gap drawn per arrival"},
		{"simtime.sleep_wake_ns", 5, "arrival gap, request hop, parse in, parse out, reply hop"},
		{"simtime.go_spawn_ns", 1, "goroutine per request"},
		{"service.resolver_infer_ns", 1, "the request itself, modelled delays excluded"},
		{"metrics.series_offered_ns", 1, "arrival recorded"},
		{"metrics.series_completed_ns", 1, "completion recorded, sketch observe included"},
	},
	// One batched request: as above, but 80% of arrivals go through the
	// balancer, every arrival publishes four load reports, and the
	// service side is the batched submit (its probe includes the batch's
	// parse and inference sleeps, so only the driver's and the two hops'
	// sleeps are added).
	"campaign_batched": {
		{"loadgen.poisson_next_ns", 1, "one gap drawn per arrival"},
		{"simtime.sleep_wake_ns", 3, "arrival gap, request hop, reply hop"},
		{"simtime.go_spawn_ns", 1, "goroutine per request"},
		{"service.registry_report_load_ns", 4, "four load reports per arrival"},
		{"service.balancer_pick_ns", 0.8, "hotspot share routed through the balancer"},
		{"service.registry_resolve_ns", 1, "resolver generation check"},
		{"proto.envelope_new_ns_64B", 2, "request and reply envelopes"},
		{"msgq.inproc_request_ns", 1, "one inproc round trip"},
		{"serving.submit_batched_ns_per_req", 1, "queue, batch formation, batched vit-base inference"},
		{"metrics.series_offered_ns", 1, "arrival recorded"},
		{"metrics.series_completed_ns", 1, "completion recorded, sketch observe included"},
	},
	// One journaled task: routed once, run through one pilot (whose
	// lifecycle probe includes the scheduler grant and the executor), and
	// journaled as description, binding and one record per transition.
	// The remainder is the core managers, the Updater's state publication
	// and waiting on the journal writer.
	"task_journal": {
		{"router.round_robin_ns", 1, "one routing decision"},
		{"pilot.task_lifecycle_us", 1, "submit to done on the pilot, scheduler and executor included"},
		{"journal.append_ns", recordsPerTask, "one append per journal record of the task"},
	},
}

// addBudget sums the workload's budget terms from the per-layer metrics
// already in res and reports the attributed and unattributed time per op.
func addBudget(res *Result, workload string, opsPerS float64) {
	terms, ok := budgets[workload]
	if !ok || opsPerS <= 0 {
		return
	}
	var attributedUS float64
	breakdown := make(map[string]float64, len(terms))
	for _, t := range terms {
		m, ok := res.Metrics[t.Metric]
		if !ok {
			res.violate("budget term %s was not measured", t.Metric)
			continue
		}
		calls := t.Calls
		if calls == recordsPerTask {
			calls = res.Metrics["journal.records_per_task"].Value
		}
		us := m.Value * calls
		if m.Unit == "ns" {
			us /= 1e3
		}
		breakdown[t.Metric] = us
		attributedUS += us
	}
	res.put("budget.attributed_us_per_op", attributedUS)
	res.put("budget.unattributed_us_per_op", 1e6/opsPerS-attributedUS)
	res.Notes["budget_us_per_op"] = breakdown
}

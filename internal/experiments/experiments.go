// Package experiments reproduces the paper's performance characterization
// (§IV): Experiment 1 (Fig. 3, bootstrap-time scaling on Frontier),
// Experiment 2 (Figs. 4/5, NOOP response time, local and remote, strong
// and weak scaling on Delta/R3) and Experiment 3 (Fig. 6, llama-8b
// inference time, local and remote). It also renders the paper's Table I
// (use cases) and Table II (experiment setup), and runs the ablations
// added since.
//
// Its one door is Registry: each entry reads Options, fills what they leave
// zero from the experiment's constants and returns its tables. Every
// in-process point runs on its own auto-advancing virtual clock
// (runTestbed): bootstrap components of tens of seconds and sub-millisecond
// NOOP round trips are both what the runtime's models say they are, and a
// figure reads the same on every host and every run.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/spec"
)

// deployment selects where the model services run relative to the client
// tasks.
type deployment string

const (
	deployLocal  deployment = "local"  // services on the same platform (Delta)
	deployRemote deployment = "remote" // services on R3, clients on Delta
)

// scaling selects the sweep mode (paper §IV-C): strong keeps 16 clients and
// grows services; weak grows both together.
type scaling string

const (
	scalingStrong scaling = "strong"
	scalingWeak   scaling = "weak"
)

// pairs returns the paper's (clients, services) sweep points.
func (s scaling) pairs() [][2]int {
	if s == scalingWeak {
		return [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}}
	}
	return [][2]int{{16, 1}, {16, 2}, {16, 4}, {16, 8}, {16, 16}}
}

// --- Experiment 1: bootstrap time -------------------------------------------

// exp1Counts are the paper's concurrent service-instance counts on Frontier.
var exp1Counts = []int{1, 2, 4, 8, 20, 40, 80, 160, 320, 640}

const (
	exp1Model = "llama-8b" // the paper hosts it via ollama
	exp1Seed  = 1
)

// runExp1 executes Experiment 1: for each instance count N it boots a fresh
// Frontier pilot, submits N one-GPU llama services concurrently, waits for
// all to become ACTIVE, and reports the per-instance launch/init/publish
// bootstrap components.
func runExp1(ctx context.Context, o Options) ([]metrics.Table, error) {
	counts, err := o.counts()
	if err != nil {
		return nil, err
	}
	if len(counts) == 0 {
		counts = exp1Counts
	}
	o.Seed = cmp.Or(o.Seed, exp1Seed)
	t := metrics.Table{
		Title:  "Experiment 1 / Fig. 3 — Service Bootstrap Time (s), " + exp1Model + " on Frontier",
		Header: []string{"#instances", "launch", "init", "publish", "total"},
	}
	for _, n := range counts {
		row, err := btPoint(ctx, o, n, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: exp1 N=%d: %w", n, err)
		}
		t.AddRow(fmt.Sprint(n),
			metrics.FmtMeanStd(row.Launch),
			metrics.FmtMeanStd(row.Init),
			metrics.FmtMeanStd(row.Publish),
			metrics.FmtMeanStd(row.Total))
	}
	return []metrics.Table{t}, nil
}

// btRow is one point of Fig. 3.
type btRow struct {
	Launch, Init, Publish, Total metrics.Stats
	// Wall is the simulated makespan from first submission to last
	// service ACTIVE — the cost axis of the partitioning trade-off.
	Wall time.Duration
}

// btPoint bootstraps n services. A positive partition bootstraps them in
// waves of at most that many concurrent launches — the paper's §IV-B
// mitigation for the post-160 launch penalty ("we will utilize both
// resource partitioning and asynchronous execution"); zero launches
// everything at once.
func btPoint(ctx context.Context, o Options, n, partition int) (row btRow, err error) {
	err = runTestbed(core.SessionConfig{
		Seed:        o.Seed + uint64(n),
		SchedPolicy: o.Sched,
	}, []spec.PilotDescription{{
		Platform: "frontier", GPUs: 640, // Table II: 640 GPUs/pilot
	}}, func(tb *testbed) error {
		sm := tb.ServiceManager()
		wave := partition
		if wave <= 0 || wave > n {
			wave = n
		}
		started := tb.clock.Now()
		uids := make([]string, 0, n)
		for base := 0; base < n; base += wave {
			count := min(wave, n-base)
			batch := make([]string, 0, count)
			for i := 0; i < count; i++ {
				inst, err := sm.Submit(hostedService(fmt.Sprintf("llm-%04d", base+i), exp1Model))
				if err != nil {
					return err
				}
				batch = append(batch, inst.UID())
			}
			// partitioned mode gates each wave on the previous one, capping
			// launch concurrency at the wave size
			if err := sm.WaitReady(ctx, batch...); err != nil {
				return err
			}
			uids = append(uids, batch...)
		}
		row.Wall = tb.clock.Now().Sub(started)

		coll := metrics.NewCollector()
		for _, uid := range uids {
			inst, _ := sm.Get(uid)
			bt := inst.Bootstrap()
			coll.AddAll("bt", bt)
			coll.Add("bt.total", bt.Total())
		}
		row.Launch, row.Init = coll.Stats("bt.launch"), coll.Stats("bt.init")
		row.Publish, row.Total = coll.Stats("bt.publish"), coll.Stats("bt.total")
		return nil
	})
	return row, err
}

// --- Experiments 2 and 3: response and inference time -----------------------

// rtExp is what Experiments 2 and 3 differ in: the hosted model and the
// defaults of its sweep.
type rtExp struct {
	model     string
	requests  int // per client
	maxTokens int
	seed      uint64
}

var (
	// exp2 is the NOOP sweep at the paper's 1024 requests per client.
	exp2 = rtExp{model: "noop", requests: 1024, seed: 2}
	// exp3's setup is "identical" to Exp 2, but a 1024-request llama sweep
	// is hours of simulated compute; the scaling shape is established
	// within a few requests per client.
	exp3 = rtExp{model: "llama-8b", requests: 8, maxTokens: 128, seed: 3}
)

// sweep builds the registry entry: one section per selected (deployment,
// scaling) pair of the model's response-time sweep.
func (e rtExp) sweep(name, title string) Experiment {
	return Experiment{Name: name, Title: title, Run: func(ctx context.Context, o Options) ([]Section, error) {
		deployments, err := o.deployments()
		if err != nil {
			return nil, err
		}
		scalings, err := o.scalings()
		if err != nil {
			return nil, err
		}
		o.Requests, o.Seed = cmp.Or(o.Requests, e.requests), cmp.Or(o.Seed, e.seed)
		var out []Section
		for _, d := range deployments {
			for _, sc := range scalings {
				t, err := e.table(ctx, o, d, sc.pairs())
				if err != nil {
					return out, err
				}
				out = append(out, Section{Title: fmt.Sprintf("%s (%s, %s)", title, d, sc), Tables: []metrics.Table{t}})
			}
		}
		return out, nil
	}}
}

// table runs one sweep and renders it in the layout of Figs. 4-6: NOOP
// round trips in milliseconds, llama inferences in seconds.
func (e rtExp) table(ctx context.Context, o Options, d deployment, pairs [][2]int) (metrics.Table, error) {
	expName, unit, unitName := "Experiment 2 (NOOP RT)", time.Millisecond, "ms"
	fig := map[deployment]string{deployLocal: "Fig. 4", deployRemote: "Fig. 5"}[d]
	if e.model != "noop" {
		expName, unit, unitName = "Experiment 3 (LLAMA IT)", time.Second, "s"
		fig = "Fig. 6"
	}
	t := metrics.Table{
		Title: fmt.Sprintf("%s / %s — %s deployment, %d requests/client (times in %s)",
			expName, fig, d, o.Requests, unitName),
		Header: []string{"clients/services", "communication", "service", "inference", "total RT"},
	}
	meanStd := func(s metrics.Stats) string {
		return fmt.Sprintf("%.3f ± %.3f", float64(s.Mean)/float64(unit), float64(s.Std)/float64(unit))
	}
	for _, pair := range pairs {
		coll, err := e.point(ctx, o, d, pair[0], pair[1])
		if err != nil {
			return t, fmt.Errorf("experiments: %s %s %d/%d: %w", e.model, d, pair[0], pair[1], err)
		}
		t.AddRow(fmt.Sprintf("%d/%d", pair[0], pair[1]),
			meanStd(coll.Stats("rt.communication")), meanStd(coll.Stats("rt.service")),
			meanStd(coll.Stats("rt.inference")), meanStd(coll.Stats("rt.total")))
	}
	return t, nil
}

// point runs one sweep point and returns its RT decomposition samples.
func (e rtExp) point(ctx context.Context, o Options, d deployment, clients, services int) (*metrics.Collector, error) {
	// client-side pilot: Delta, Table II (256 cores / 16 GPUs); the
	// service-side pilot is the same one for local, R3 for remote
	pilots := []spec.PilotDescription{{Platform: "delta", Cores: 256, GPUs: 16}}
	if d == deployRemote {
		pilots = append(pilots, spec.PilotDescription{Platform: "r3", Nodes: 1})
	}
	coll := metrics.NewCollector()
	err := runTestbed(core.SessionConfig{
		Seed: o.Seed + uint64(clients*1000+services),
		// Exp 2/3 measure steady-state RT/IT, not bootstrap.
		FastBoot:    true,
		SchedPolicy: o.Sched,
	}, pilots, func(tb *testbed) error {
		clientPilot, svcPilot := tb.pilots[0], tb.pilots[len(tb.pilots)-1]
		eps, err := startServices(ctx, tb, svcPilot, e.model, services)
		if err != nil {
			return err
		}
		return e.runClients(ctx, tb, clientPilot, o.Requests, clients, eps, coll)
	})
	return coll, err
}

// startServices boots `services` instances of model on svcPilot and
// returns their endpoints.
func startServices(ctx context.Context, tb *testbed, svcPilot *pilot.Pilot, model string, services int) ([]proto.Endpoint, error) {
	uids := make([]string, 0, services)
	for i := 0; i < services; i++ {
		inst, err := svcPilot.SubmitService(hostedService(fmt.Sprintf("svc-%02d", i), model))
		if err != nil {
			return nil, err
		}
		uids = append(uids, inst.UID())
		// One at a time: each bootstrap is placed, on the node that sets
		// its clients' link latencies, before the next reaches the scheduler.
		tb.clock.Settle()
	}
	if err := svcPilot.WaitServices(ctx, uids...); err != nil {
		return nil, err
	}
	// publication precedes ACTIVE, so every ready instance has its endpoint
	eps := make([]proto.Endpoint, 0, services)
	for _, uid := range uids {
		inst, _ := svcPilot.Service(uid)
		eps = append(eps, inst.Endpoint())
	}
	return eps, nil
}

// runClients submits `clients` function tasks on clientPilot; each client
// sends `requests` requests to its assigned service (round-robin
// client→service mapping, the paper's rudimentary load balancing) and
// records the RT decomposition.
func (e rtExp) runClients(ctx context.Context, tb *testbed, clientPilot *pilot.Pilot, requests, clients int, eps []proto.Endpoint, coll *metrics.Collector) error {
	nodes := clientPilot.Nodes()
	var uids []string
	for c := 0; c < clients; c++ {
		c := c
		ep := eps[c%len(eps)]
		node := nodes[c%len(nodes)]
		clientAddr := platform.Addr("delta", node.Name(), fmt.Sprintf("client.%04d", c))
		desc := spec.TaskDescription{
			Name:  fmt.Sprintf("client-%04d", c),
			Cores: 1,
			Func: func(taskCtx context.Context) error {
				cl, err := service.Dial(tb.Network(), tb.clock, clientAddr, ep)
				if err != nil {
					return err
				}
				defer cl.Close()
				for i := 0; i < requests; i++ {
					prompt := fmt.Sprintf("request %d from client %d", i, c)
					_, rt, err := cl.Infer(taskCtx, prompt, e.maxTokens)
					if err != nil {
						return err
					}
					coll.AddAll("rt", rt)
					coll.Add("rt.total", rt.Total())
				}
				return nil
			},
		}
		t, err := clientPilot.SubmitTask(ctx, desc)
		if err != nil {
			return err
		}
		uids = append(uids, t.UID())
		// The clients all start at the same instant. One at a time, each
		// draws its first hop from the network's one stream in client order.
		tb.clock.Settle()
	}
	return clientPilot.WaitTasks(ctx, uids...)
}

// --- Table II -----------------------------------------------------------------

// tableII renders the paper's experiment-setup table.
func tableII() metrics.Table {
	t := metrics.Table{
		Title: "Table II — Experiment setup",
		Header: []string{"ID", "HPC Platform", "Task Type", "Model", "Deployment",
			"#Tasks", "#Models", "#Cores/Pilot", "#GPUs/Pilot", "Scaling"},
	}
	t.AddRow("1", "Frontier", "n/a", "llama 8b", "local", "n/a", "1-640", "640", "40", "weak")
	t.AddRow("2", "Delta", "NOOP", "noop", "local", "1-16", "1-16", "256", "16", "strong/weak")
	t.AddRow("2", "Delta and R3", "NOOP", "noop", "remote", "1-16", "1-16", "256", "16", "strong/weak")
	t.AddRow("3", "Delta", "inference", "llama 8b", "local", "1-16", "1-16", "256", "16", "strong/weak")
	t.AddRow("3", "Delta and R3", "inference", "llama 8b", "remote", "1-16", "1-16", "256", "16", "strong/weak")
	return t
}

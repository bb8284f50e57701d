// Package experiments reproduces the paper's performance characterization
// (§IV): Experiment 1 (Fig. 3, bootstrap-time scaling on Frontier),
// Experiment 2 (Figs. 4/5, NOOP response time, local and remote, strong
// and weak scaling on Delta/R3) and Experiment 3 (Fig. 6, llama-8b
// inference time, local and remote). It also renders the paper's Table I
// (use cases) and Table II (experiment setup).
//
// Every in-process point runs on its own auto-advancing virtual clock
// (runTestbed): bootstrap components of tens of seconds and sub-millisecond
// NOOP round trips are both what the runtime's models say they are, and a
// figure reads the same on every host and every run.
package experiments

import (
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

// Deployment selects where the model services run relative to the client
// tasks.
type Deployment string

// Deployments.
const (
	DeployLocal  Deployment = "local"  // services on the same platform (Delta)
	DeployRemote Deployment = "remote" // services on R3, clients on Delta
)

// Scaling selects the sweep mode.
type Scaling string

// Scaling modes (paper §IV-C): strong keeps 16 clients and grows services;
// weak grows both together.
const (
	ScalingStrong Scaling = "strong"
	ScalingWeak   Scaling = "weak"
)

// StrongPairs are the paper's strong-scaling client/service pairs.
func StrongPairs() [][2]int {
	return [][2]int{{16, 1}, {16, 2}, {16, 4}, {16, 8}, {16, 16}}
}

// WeakPairs are the paper's weak-scaling client/service pairs.
func WeakPairs() [][2]int {
	return [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}}
}

// --- Experiment 1: bootstrap time -------------------------------------------

// BTConfig parameterizes Experiment 1.
type BTConfig struct {
	// Counts are the concurrent service-instance counts; the paper uses
	// 1..640 on Frontier.
	Counts []int
	// Model is the hosted model (paper: llama-8b via ollama).
	Model string
	// Seed drives determinism.
	Seed uint64
	// Partition, when positive, bootstraps services in waves of at most
	// Partition concurrent launches — the paper's §IV-B mitigation for the
	// post-160 launch penalty ("we will utilize both resource partitioning
	// and asynchronous execution"). Zero launches everything at once.
	Partition int
	// SchedPolicy selects the pilot scheduler's placement policy
	// ("strict", "backfill", "best-fit"; empty = strict).
	SchedPolicy string
	// Router selects the session's task routing strategy ("round-robin",
	// "least-loaded", "capacity-fit"; empty = round-robin).
	Router string
}

// DefaultBTConfig returns the paper's Exp 1 parameterization.
func DefaultBTConfig() BTConfig { return BTConfig{}.withDefaults() }

func (c BTConfig) withDefaults() BTConfig {
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 2, 4, 8, 20, 40, 80, 160, 320, 640}
	}
	if c.Model == "" {
		c.Model = "llama-8b"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// BTRow is one point of Fig. 3.
type BTRow struct {
	N       int
	Launch  metrics.Stats
	Init    metrics.Stats
	Publish metrics.Stats
	Total   metrics.Stats
	// Wall is the simulated makespan from first submission to last
	// service ACTIVE — the cost axis of the partitioning trade-off.
	Wall time.Duration
}

// BTResult is the Fig. 3 dataset.
type BTResult struct {
	Cfg  BTConfig
	Rows []BTRow
}

// RunBT executes Experiment 1: for each instance count N it boots a fresh
// Frontier pilot, submits N one-GPU llama services concurrently, waits for
// all to become ACTIVE, and records the per-instance launch/init/publish
// bootstrap components.
func RunBT(ctx context.Context, cfg BTConfig) (*BTResult, error) {
	cfg = cfg.withDefaults()
	res := &BTResult{Cfg: cfg}
	for _, n := range cfg.Counts {
		row, err := runBTPoint(ctx, cfg, n)
		if err != nil {
			return res, fmt.Errorf("experiments: exp1 N=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runBTPoint(ctx context.Context, cfg BTConfig, n int) (row BTRow, err error) {
	err = runTestbed(core.SessionConfig{
		Seed:        cfg.Seed + uint64(n),
		SchedPolicy: cfg.SchedPolicy,
		Router:      cfg.Router,
	}, []spec.PilotDescription{{
		Platform: "frontier", GPUs: 640, // Table II: 640 GPUs/pilot
	}}, func(tb *testbed) error {
		sm := tb.ServiceManager()
		wave := cfg.Partition
		if wave <= 0 || wave > n {
			wave = n
		}
		started := tb.clock.Now()
		uids := make([]string, 0, n)
		for base := 0; base < n; base += wave {
			count := min(wave, n-base)
			batch := make([]string, 0, count)
			for i := 0; i < count; i++ {
				inst, err := sm.Submit(hostedService(fmt.Sprintf("llm-%04d", base+i), cfg.Model))
				if err != nil {
					return err
				}
				batch = append(batch, inst.UID())
			}
			// partitioned mode gates each wave on the previous one, capping
			// launch concurrency at the wave size
			if err := tb.wait(func() error { return sm.WaitReady(ctx, batch...) }); err != nil {
				return err
			}
			uids = append(uids, batch...)
		}
		row.Wall = tb.clock.Now().Sub(started)

		coll := metrics.NewCollector()
		for _, uid := range uids {
			inst, _ := sm.Get(uid)
			bt := inst.Bootstrap()
			coll.AddAll("bt", bt.Components)
			coll.Add("bt.total", bt.Total())
		}
		row.N = n
		row.Launch, row.Init = coll.Stats("bt.launch"), coll.Stats("bt.init")
		row.Publish, row.Total = coll.Stats("bt.publish"), coll.Stats("bt.total")
		return nil
	})
	return row, err
}

// Table renders the Fig. 3 dataset.
func (r *BTResult) Table() metrics.Table {
	t := metrics.Table{
		Title:  "Experiment 1 / Fig. 3 — Service Bootstrap Time (s), " + r.Cfg.Model + " on Frontier",
		Header: []string{"#instances", "launch", "init", "publish", "total"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.N),
			metrics.FmtMeanStd(row.Launch),
			metrics.FmtMeanStd(row.Init),
			metrics.FmtMeanStd(row.Publish),
			metrics.FmtMeanStd(row.Total))
	}
	return t
}

// --- Experiments 2 and 3: response and inference time -----------------------

// RTConfig parameterizes Experiments 2 (NOOP) and 3 (llama-8b).
type RTConfig struct {
	// Model: "noop" (Exp 2) or "llama-8b" (Exp 3).
	Model string
	// Deploy: local (Delta) or remote (Delta clients → R3 services).
	Deploy Deployment
	// Pairs are the (clients, services) sweep points.
	Pairs [][2]int
	// RequestsPerClient: the paper uses 1024 for NOOP; inference sweeps
	// use fewer per point to bound runtime.
	RequestsPerClient int
	// MaxTokens bounds generation for inference models.
	MaxTokens int
	// Seed drives determinism.
	Seed uint64
	// ServiceConcurrency overrides the single-threaded default (ablation).
	ServiceConcurrency int
	// SchedPolicy selects the pilot scheduler's placement policy
	// ("strict", "backfill", "best-fit"; empty = strict).
	SchedPolicy string
	// Router selects the session's task routing strategy ("round-robin",
	// "least-loaded", "capacity-fit"; empty = round-robin).
	Router string
}

// DefaultExp2Config returns the paper's Exp 2 parameterization for the
// given deployment and scaling mode.
func DefaultExp2Config(deploy Deployment, scaling Scaling) RTConfig {
	return RTConfig{Model: "noop", Deploy: deploy, Pairs: pairsFor(scaling)}.withDefaults()
}

// DefaultExp3Config returns the paper's Exp 3 parameterization.
func DefaultExp3Config(deploy Deployment, scaling Scaling) RTConfig {
	return RTConfig{Model: "llama-8b", Deploy: deploy, Pairs: pairsFor(scaling)}.withDefaults()
}

func pairsFor(scaling Scaling) [][2]int {
	if scaling == ScalingWeak {
		return WeakPairs()
	}
	return StrongPairs()
}

// withDefaults fills what is unset from the model's experiment: Exp 2 for
// noop (the default model), Exp 3 for anything that infers.
func (c RTConfig) withDefaults() RTConfig {
	if c.Model == "" {
		c.Model = "noop"
	}
	exp2 := c.Model == "noop"
	if c.RequestsPerClient <= 0 {
		// Exp 3's setup is "identical" to Exp 2, but a 1024-request llama
		// sweep is hours of simulated compute; the scaling shape is
		// established within a few requests per client.
		c.RequestsPerClient = 8
		if exp2 {
			c.RequestsPerClient = 1024
		}
	}
	if c.MaxTokens <= 0 && !exp2 {
		c.MaxTokens = 128
	}
	if c.Seed == 0 {
		c.Seed = 3
		if exp2 {
			c.Seed = 2
		}
	}
	return c
}

// RTRow is one sweep point of Figs. 4-6.
type RTRow struct {
	Clients  int
	Services int
	Comm     metrics.Stats
	Service  metrics.Stats
	Infer    metrics.Stats
	Total    metrics.Stats
}

// RTResult is a Figs. 4-6 dataset.
type RTResult struct {
	Cfg  RTConfig
	Rows []RTRow
}

// RunRT executes one RT sweep.
func RunRT(ctx context.Context, cfg RTConfig) (*RTResult, error) {
	cfg = cfg.withDefaults()
	res := &RTResult{Cfg: cfg}
	for _, pair := range cfg.Pairs {
		row, err := runRTPoint(ctx, cfg, pair[0], pair[1])
		if err != nil {
			return res, fmt.Errorf("experiments: %s %s %d/%d: %w", cfg.Model, cfg.Deploy, pair[0], pair[1], err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runRTPoint(ctx context.Context, cfg RTConfig, clients, services int) (row RTRow, err error) {
	// client-side pilot: Delta, Table II (256 cores / 16 GPUs); the
	// service-side pilot is the same one for local, R3 for remote
	pilots := []spec.PilotDescription{{Platform: "delta", Cores: 256, GPUs: 16}}
	if cfg.Deploy == DeployRemote {
		pilots = append(pilots, spec.PilotDescription{Platform: "r3", Nodes: 1})
	}
	err = runTestbed(core.SessionConfig{
		Seed: cfg.Seed + uint64(clients*1000+services),
		// Exp 2/3 measure steady-state RT/IT, not bootstrap.
		FastBoot:    true,
		SchedPolicy: cfg.SchedPolicy,
		Router:      cfg.Router,
	}, pilots, func(tb *testbed) error {
		clientPilot, svcPilot := tb.pilots[0], tb.pilots[len(tb.pilots)-1]
		eps, err := startServices(ctx, tb, svcPilot, cfg, services)
		if err != nil {
			return err
		}
		coll := metrics.NewCollector()
		if err := runClients(ctx, tb, clientPilot, cfg, clients, eps, coll); err != nil {
			return err
		}
		row = RTRow{
			Clients:  clients,
			Services: services,
			Comm:     coll.Stats("rt.communication"),
			Service:  coll.Stats("rt.service"),
			Infer:    coll.Stats("rt.inference"),
			Total:    coll.Stats("rt.total"),
		}
		return nil
	})
	return row, err
}

// startServices boots `services` instances on svcPilot and returns their
// endpoints.
func startServices(ctx context.Context, tb *testbed, svcPilot *pilot.Pilot, cfg RTConfig, services int) ([]proto.Endpoint, error) {
	mgr := svcPilot.Services()
	uids := make([]string, 0, services)
	for i := 0; i < services; i++ {
		d := hostedService(fmt.Sprintf("svc-%02d", i), cfg.Model)
		d.Concurrency = cfg.ServiceConcurrency
		inst, err := mgr.Submit(d)
		if err != nil {
			return nil, err
		}
		uids = append(uids, inst.UID())
		// One at a time: each bootstrap is placed, on the node that sets
		// its clients' link latencies, before the next reaches the scheduler.
		tb.clock.Settle()
	}
	if err := tb.wait(func() error { return mgr.WaitReady(ctx, uids...) }); err != nil {
		return nil, err
	}
	// publication precedes ACTIVE, so every ready instance has its endpoint
	eps := make([]proto.Endpoint, 0, services)
	for _, uid := range uids {
		inst, _ := mgr.Get(uid)
		eps = append(eps, inst.Endpoint())
	}
	return eps, nil
}

// runClients submits `clients` function tasks on clientPilot; each client
// sends RequestsPerClient requests to its assigned service (round-robin
// client→service mapping, the paper's rudimentary load balancing) and
// records the RT decomposition.
func runClients(ctx context.Context, tb *testbed, clientPilot *pilot.Pilot, cfg RTConfig, clients int, eps []proto.Endpoint, coll *metrics.Collector) error {
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
				for i := 0; i < cfg.RequestsPerClient; i++ {
					prompt := fmt.Sprintf("request %d from client %d", i, c)
					_, rt, err := cl.Infer(taskCtx, prompt, cfg.MaxTokens)
					if err != nil {
						return err
					}
					coll.AddAll("rt", rt.Components)
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
	return tb.wait(func() error { return clientPilot.WaitTasks(ctx, uids...) })
}

// Table renders an RT dataset in the layout of Figs. 4-6: NOOP round trips
// in milliseconds, llama inferences in seconds.
func (r *RTResult) Table() metrics.Table {
	expName, unit, unitName := "Experiment 2 (NOOP RT)", time.Millisecond, "ms"
	fig := map[Deployment]string{DeployLocal: "Fig. 4", DeployRemote: "Fig. 5"}[r.Cfg.Deploy]
	if r.Cfg.Model != "noop" {
		expName, unit, unitName = "Experiment 3 (LLAMA IT)", time.Second, "s"
		fig = "Fig. 6"
	}
	t := metrics.Table{
		Title: fmt.Sprintf("%s / %s — %s deployment, %d requests/client (times in %s)",
			expName, fig, r.Cfg.Deploy, r.Cfg.RequestsPerClient, unitName),
		Header: []string{"clients/services", "communication", "service", "inference", "total RT"},
	}
	meanStd := func(s metrics.Stats) string {
		return fmt.Sprintf("%.3f ± %.3f", float64(s.Mean)/float64(unit), float64(s.Std)/float64(unit))
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d/%d", row.Clients, row.Services),
			meanStd(row.Comm), meanStd(row.Service), meanStd(row.Infer), meanStd(row.Total))
	}
	return t
}

// --- Table II -----------------------------------------------------------------

// TableII renders the paper's experiment-setup table.
func TableII() metrics.Table {
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

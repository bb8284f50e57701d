package loadgen

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// probeNever pushes the liveness probe ticker past any campaign horizon:
// probes are irrelevant to open-loop measurement and a short probe period
// would dominate the virtual-clock event heap.
const probeNever = 10000 * time.Hour

// Result is the outcome of one campaign.
type Result struct {
	// Scenario is the (defaulted) scenario that ran.
	Scenario Scenario
	// Offered/Completed/Failed are the exact request counts; Offered is
	// always Scenario.Requests and Completed+Failed == Offered.
	Offered   int64
	Completed int64
	Failed    int64
	// TasksSubmitted/TasksDone count the side-channel compute tasks.
	TasksSubmitted int64
	TasksDone      int64
	// Replacements counts session-level service re-placements (churn).
	Replacements int
	// Reresolved counts resolver re-resolutions after endpoint failures.
	Reresolved int
	// PeakReplicas is the highest concurrent serving-replica count any
	// backend reached (1 unless the autoscaler was enabled).
	PeakReplicas int
	// Duration is the virtual-time makespan from campaign start to the
	// last completion.
	Duration time.Duration
	// Wall is the real time the campaign took.
	Wall time.Duration
	// Series is the per-interval time series (counts, rates, percentiles).
	Series *metrics.IntervalSeries
	// Latency is the campaign-wide latency sketch (merged across
	// intervals).
	Latency *metrics.Sketch
	// SketchBytes is the merged sketch's bucket footprint.
	SketchBytes int
	// Samples holds every completion latency when Scenario.KeepSamples
	// was set (oracle comparisons in tests), nil otherwise.
	Samples []time.Duration
}

// Run executes one open-loop campaign on a fresh session over an
// auto-advancing virtual clock.
//
// Determinism: the arrival schedule and target choices are pure functions
// of the scenario seed; the virtual clock advances only when every
// registered campaign goroutine is parked, so request interleaving — and
// with it every count and latency — replays exactly across runs. The
// driver, the per-request goroutines and the churn controller register
// with the clock; requests use non-cancellable contexts so the whole
// REQ/REP round trip runs inline on the accounted goroutine.
func Run(ctx context.Context, sc Scenario) (*Result, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()

	clock := simtime.NewVirtualAuto(core.DefaultOrigin)
	sess, err := core.NewSession(core.SessionConfig{
		Seed:  sc.Seed,
		Clock: clock,
		// Campaigns measure steady-state serving, not bootstrap.
		FastBoot: true,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	pilots, err := startPilots(sess, sc)
	if err != nil {
		return nil, err
	}
	handles, err := startBackends(ctx, sess, sc)
	if err != nil {
		return nil, err
	}
	// The balanced hotspot shape turns service 0's client into a
	// load-aware Balancer over the whole fleet: the registry group under
	// service 0 lists the other services as members, and the driver
	// publishes load reports each arrival so the picker can steer the
	// skewed mass away from the direct background traffic.
	balanced := sc.Kind == KindHotspot && sc.Balance != "direct" && sc.Services > 1
	if balanced {
		reg := sess.EndpointRegistry()
		for _, h := range handles[1:] {
			reg.AddMember(handles[0].UID(), h.UID())
		}
	}
	// Only service 0's client of a balanced hotspot names a picker; every
	// other client takes the session default, which an unscaled service —
	// a group of one — never consults.
	pickers := make([]loadbal.Picker, len(handles))
	if balanced {
		pickers[0], err = loadbal.PickerByName(sc.Balance, rng.New(sc.Seed).Derive("balance").Uint64())
		if err != nil {
			return nil, err
		}
	}
	resolvers := make([]*service.Balancer, len(handles))
	for i, h := range handles {
		addr := platform.Addr("delta", "", fmt.Sprintf("loadgen.client.%02d", i))
		r, err := sess.DialService(addr, h.UID(), pickers[i])
		if err != nil {
			return nil, err
		}
		defer r.Close()
		resolvers[i] = r
	}

	c := &campaign{
		sc:        sc,
		sess:      sess,
		clock:     clock,
		pilots:    pilots,
		handles:   handles,
		resolvers: resolvers,
		balanced:  balanced,
		t0:        clock.Now(),
		bg:        context.Background(),
	}
	c.series = metrics.NewIntervalSeries(c.t0, sc.Interval, metrics.DefaultSketchAlpha)
	c.maxDone = c.t0

	churnDone := c.startChurn(ctx)
	driverDone := make(chan struct{})
	clock.Go(func() {
		defer close(driverDone)
		c.drive(ctx)
	})
	select {
	case <-driverDone:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if churnDone != nil {
		select {
		case <-churnDone:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if c.churnErr != nil {
			return nil, c.churnErr
		}
	}
	if len(c.tasks) > 0 {
		clock.AddRunner() // Wait parks its caller on the clock's books
		err := sess.TaskManager().Wait(ctx, c.tasks...)
		clock.DoneRunner()
		if err != nil {
			return nil, fmt.Errorf("loadgen: task stream: %w", err)
		}
	}

	res := &Result{
		Scenario:       sc,
		Offered:        c.offered.Load(),
		Completed:      c.completed.Load(),
		Failed:         c.failed.Load(),
		TasksSubmitted: int64(len(c.tasks)),
		TasksDone:      c.tasksDone.Load(),
		Duration:       c.maxDone.Sub(c.t0),
		Wall:           time.Since(wallStart),
		Series:         c.series,
		Samples:        c.samples,
	}
	res.Latency = c.series.Sketch()
	res.SketchBytes = res.Latency.MemoryBytes()
	for _, h := range handles {
		res.Replacements += h.Replacements()
		if pr := h.PeakReplicas(); pr > res.PeakReplicas {
			res.PeakReplicas = pr
		}
	}
	for _, r := range resolvers {
		res.Reresolved += r.Reresolved()
	}
	return res, nil
}

// campaign is the mutable state shared by the driver, the per-request
// goroutines and the churn controller.
type campaign struct {
	sc        Scenario
	sess      *core.Session
	clock     *simtime.Virtual
	pilots    []*pilot.Pilot
	handles   []*core.Service
	resolvers []*service.Balancer
	balanced  bool
	t0        time.Time
	bg        context.Context

	offered, completed, failed atomic.Int64
	outstanding                atomic.Int64
	tasksDone                  atomic.Int64
	tasks                      []*core.Task

	mu      sync.Mutex // guards series, samples, maxDone
	series  *metrics.IntervalSeries
	samples []time.Duration
	maxDone time.Time

	churnErr error
}

// startPilots submits the campaign pilots (two for churn — one to kill,
// one to survive) and attaches them to the session managers.
func startPilots(sess *core.Session, sc Scenario) ([]*pilot.Pilot, error) {
	n := 1
	if sc.Kind == kindChurn {
		n = 2
	}
	pilots := make([]*pilot.Pilot, 0, n)
	for i := 0; i < n; i++ {
		p, err := sess.PilotManager().Submit(spec.PilotDescription{
			Platform: "delta", Cores: 128, GPUs: 8,
		})
		if err != nil {
			return nil, err
		}
		sess.ServiceManager().AddPilot(p)
		sess.TaskManager().AddPilot(p)
		pilots = append(pilots, p)
	}
	return pilots, nil
}

// startBackends boots the scenario's service fleet and waits for every
// instance to publish.
func startBackends(ctx context.Context, sess *core.Session, sc Scenario) ([]*core.Service, error) {
	sm := sess.ServiceManager()
	handles := make([]*core.Service, 0, sc.Services)
	uids := make([]string, 0, sc.Services)
	for i := 0; i < sc.Services; i++ {
		model := sc.Model
		if model == "" {
			model = "noop"
		}
		if sc.Kind == kindStraggler && i == 0 {
			model = sc.StragglerModel
		}
		d := spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("ld-%02d", i)},
			Model:           model,
			Concurrency:     sc.Concurrency,
			QueueCap:        sc.QueueCap,
			MaxBatch:        sc.MaxBatch,
			MinReplicas:     sc.MinReplicas,
			MaxReplicas:     sc.MaxReplicas,
			ScaleInterval:   sc.ScaleInterval,
			ScaleUpQueue:    sc.ScaleUpQueue,
			ScaleDownQueue:  sc.ScaleDownQueue,
			ScaleStabilize:  sc.ScaleStabilize,
			StartTimeout:    time.Hour,
			ProbeInterval:   probeNever,
		}
		if model == "noop" {
			d.Cores = 1
		} else {
			d.GPUs = 1
		}
		h, err := sm.Submit(d)
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
		uids = append(uids, h.UID())
	}
	if err := sm.WaitReady(ctx, uids...); err != nil {
		return nil, err
	}
	return handles, nil
}

// drive runs the open-loop arrival schedule on a clock-registered
// goroutine: sleep the next gap, stamp the arrival, hand the request to a
// request runner, repeat. The final wait for in-flight requests is
// bracketed with Block/Unblock so the clock keeps advancing while the
// driver parks on the WaitGroup.
//
// drive owns the request runners. A runner lives as long as the campaign
// and keeps the stack its first request grew; between requests it parks,
// unregistered, on the unbuffered jobs channel. The driver takes the
// runner token before the hand-off (register-before-spawn, as clock.Go
// does) and starts a new runner only when none is parked, so how many
// exist depends on host scheduling while no count, sample or timestamp
// does. Closing jobs after the last request stops them all.
func (c *campaign) drive(ctx context.Context) {
	arr := c.sc.arrivals(c.sc.Seed)
	targets := rng.New(c.sc.Seed).Derive("targets")
	var wg sync.WaitGroup
	type job struct{ idx, svc int }
	jobs := make(chan job)
	defer close(jobs)
	runner := func(j job) {
		for ok := true; ok; j, ok = <-jobs {
			c.request(j.idx, j.svc)
			wg.Done()
			c.clock.DoneRunner()
		}
	}
	for i := 0; ; i++ {
		gap, ok := arr.Next()
		if !ok {
			break
		}
		if gap > 0 {
			c.clock.Sleep(gap)
		}
		now := c.clock.Now()
		if c.balanced {
			c.reportLoads(now)
		}
		svc := c.pickTarget(i, targets)
		c.offered.Add(1)
		depth := c.outstanding.Add(1)
		c.mu.Lock()
		c.series.Offered(now)
		c.series.ObserveQueue(now, depth)
		c.mu.Unlock()

		j := job{i, svc}
		wg.Add(1)
		c.clock.AddRunner()
		select {
		case jobs <- j:
		default:
			go runner(j)
		}
		if c.sc.TaskEvery > 0 && i%c.sc.TaskEvery == 0 {
			c.submitTask(ctx, i)
		}
	}
	c.clock.Block()
	defer c.clock.Unblock()
	wg.Wait()
}

// reportLoads publishes each backend's queue gauges into the registry —
// the load signal the balanced hotspot's picker probes. Reporting rides
// the driver's own arrival wake-ups, so report freshness equals the
// inter-arrival gap and the schedule stays a pure function of the seed
// (no extra clock-registered goroutine to interleave).
func (c *campaign) reportLoads(now time.Time) {
	reg := c.sess.EndpointRegistry()
	for _, h := range c.handles {
		reg.ReportLoad(h.UID(), service.Load{
			Queued: h.Queued(), InFlight: h.InFlight(), At: now,
		})
	}
}

// pickTarget maps the i-th arrival to a backend: round-robin by default,
// rng-skewed under the hotspot scenario.
func (c *campaign) pickTarget(i int, targets *rng.Source) int {
	n := len(c.resolvers)
	if c.sc.Kind == KindHotspot && n > 1 {
		if targets.Float64() < c.sc.HotspotWeight {
			return 0
		}
		return 1 + targets.Intn(n-1)
	}
	return i % n
}

// request issues one inference on a registered goroutine with a
// non-cancellable context (the inline msgq path keeps every modelled hop
// on this accounted goroutine) and records the outcome.
func (c *campaign) request(idx, svc int) {
	start := c.clock.Now()
	_, _, err := c.resolvers[svc].Infer(c.bg, requestPrompt(idx), c.sc.MaxTokens)
	end := c.clock.Now()
	c.outstanding.Add(-1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.failed.Add(1)
		c.series.Failed(end)
	} else {
		c.completed.Add(1)
		lat := end.Sub(start)
		c.series.Completed(end, lat)
		if c.sc.KeepSamples {
			c.samples = append(c.samples, lat)
		}
	}
	if end.After(c.maxDone) {
		c.maxDone = end
	}
}

// requestPrompt returns fmt.Sprintf("req-%07d", idx) for idx >= 0, without
// fmt: the prompt's bytes feed the token counts of non-noop models.
func requestPrompt(idx int) string {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(idx), 10)
	return "req-" + "0000000"[:max(7-len(digits), 0)] + string(digits)
}

// submitTask pushes one no-op compute task through the TaskManager seam.
// Submission never parks on virtual time, so the driver calls it inline.
func (c *campaign) submitTask(ctx context.Context, idx int) {
	ts, err := c.sess.TaskManager().Submit(ctx, spec.TaskDescription{
		Name:  fmt.Sprintf("ld-task-%06d", idx),
		Cores: 1,
		Func: func(context.Context) error {
			c.tasksDone.Add(1)
			return nil
		},
	})
	if err == nil {
		c.tasks = append(c.tasks, ts...)
	}
}

// startChurn launches the mid-stream pilot-churn controller on a
// registered goroutine: at ChurnAt it shuts down pilot 0 and parks in
// AwaitNewer until every affected service has re-published from the
// survivor. The controller stays registered (it never calls Block), so
// the clock is frozen for the whole failover — re-placement under
// FastBoot needs no virtual time, making the churn atomic in simulated
// time: the offered schedule resumes exactly where it paused.
func (c *campaign) startChurn(ctx context.Context) chan struct{} {
	if c.sc.Kind != kindChurn {
		return nil
	}
	done := make(chan struct{})
	c.clock.Go(func() {
		defer close(done)
		c.clock.Sleep(c.sc.ChurnAt)
		victim := c.pilots[0]
		reg := c.sess.EndpointRegistry()
		gens := make(map[string]uint64)
		for _, h := range c.handles {
			if h.Pilot() == victim.UID() {
				gens[h.UID()] = reg.Generation(h.UID())
			}
		}
		if err := victim.Shutdown(); err != nil {
			c.churnErr = fmt.Errorf("loadgen: churn shutdown: %w", err)
			return
		}
		for uid, gen := range gens {
			if _, _, err := reg.AwaitNewer(ctx, uid, gen); err != nil {
				c.churnErr = fmt.Errorf("loadgen: churn re-publication of %s: %w", uid, err)
				return
			}
		}
	})
	return done
}

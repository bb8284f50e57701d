package loadgen

import (
	"context"
	"fmt"
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

// stragglerModel is the model service 0 hosts under kindStraggler: vit-base,
// whose modelled inference takes milliseconds.
const stragglerModel = "vit-base"

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
	// Reresolved counts balancer re-resolutions after endpoint failures.
	Reresolved int
	// PeakReplicas is the highest concurrent serving-replica count any
	// backend reached (1 unless the autoscaler was enabled).
	PeakReplicas int
	// Duration is the virtual-time makespan from campaign start to the
	// last completion.
	Duration time.Duration
	// Wall is the real time the campaign took.
	Wall time.Duration
	// Latency is the campaign-wide latency sketch, one observation per
	// completed request.
	Latency *metrics.Sketch
	// SketchBytes is the latency sketch's bucket footprint.
	SketchBytes int
	// Samples holds every completion latency when Scenario.KeepSamples
	// was set (exact quantiles), nil otherwise.
	Samples []time.Duration
	// Parks counts how often the campaign's goroutines parked on its
	// clock, set-up included (simtime.Virtual.Parks): in Sleep, in a
	// Handoff's Recv and in an Alarm's Wait. Latch waits, the set-up's
	// and the end's, are left out.
	Parks uint64
}

// Run executes one open-loop campaign on a fresh session over an
// auto-advancing virtual clock.
//
// Determinism: the arrival schedule and target choices are pure functions
// of the scenario seed; the virtual clock advances only when every
// registered campaign goroutine is parked, so request interleaving — and
// with it every count and latency — replays exactly across runs. The
// arrivals are served by a crew of goroutines (see drive), which hold
// runner tokens while they lead or serve a request, and the churn
// controller registers with the clock too; requests use non-cancellable
// contexts so the whole REQ/REP round trip runs inline on the accounted
// goroutine, and so does the service side when the request finds its
// server idle (serving.Server serves it on the caller, in the parked
// worker's place).
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
	// A hotspot turns service 0's client into a load-aware Balancer over
	// the whole fleet: the registry group under service 0 lists the other
	// services as members, and the picker reads each member's server queue
	// at pick time to steer the skewed mass away from the direct
	// background traffic.
	balanced := sc.Kind == KindHotspot && sc.Services > 1
	if balanced {
		reg := sess.EndpointRegistry()
		for _, h := range handles[1:] {
			reg.AddMember(handles[0].UID(), h.UID())
		}
	}
	// Only service 0's client of a hotspot names a picker; every
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
		t0:        clock.Now(),
		bg:        context.Background(),
		arr:       sc.arrivals(sc.Seed),
		targets:   rng.New(sc.Seed).Derive("targets"),
		ended:     make(chan struct{}),
		latency:   metrics.NewSketch(metrics.DefaultSketchAlpha),
	}
	c.maxDone = c.t0

	// Hold the clock until the first arrival is on it too: the churn
	// controller's sleep alone would let time jump by ChurnAt before the
	// first arrival.
	clock.AddRunner()
	c.drive(ctx)
	churnDone := c.startChurn(ctx)
	clock.DoneRunner()
	select {
	case <-c.ended:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.crew.Wait()
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

	sleeps, recvs, alarms, _, _ := clock.Parks()
	res := &Result{
		Parks:          sleeps + recvs + alarms,
		Scenario:       sc,
		Offered:        c.offered.Load(),
		Completed:      c.completed.Load(),
		Failed:         c.failed.Load(),
		TasksSubmitted: int64(len(c.tasks)),
		TasksDone:      c.tasksDone.Load(),
		Duration:       c.maxDone.Sub(c.t0),
		Wall:           time.Since(wallStart),
		Latency:        c.latency,
		SketchBytes:    c.latency.MemoryBytes(),
		Samples:        c.samples,
	}
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

// campaign is the mutable state shared by the crew that serves the
// arrivals and the churn controller.
type campaign struct {
	sc        Scenario
	sess      *core.Session
	clock     *simtime.Virtual
	pilots    []*pilot.Pilot
	handles   []*core.Service
	resolvers []*service.Balancer
	t0        time.Time
	bg        context.Context

	offered, completed, failed atomic.Int64
	tasksDone                  atomic.Int64
	tasks                      []*core.Task

	mu      sync.Mutex // guards latency, samples, maxDone
	latency *metrics.Sketch
	samples []time.Duration
	maxDone time.Time

	churnErr error

	// arr and targets are the arrival schedule, read only by the crew
	// member that leads.
	arr     Arrivals
	targets *rng.Source

	crewMu sync.Mutex // guards idle, and closing ended
	// idle holds the crew members parked on their alarms, the most recently
	// parked last.
	idle []*follower
	// ended is closed at the schedule's last arrival.
	ended chan struct{}
	// crew counts the live crew members; Run waits for the last of them.
	crew sync.WaitGroup
}

// follower is one member of the crew: a goroutine that parks on its alarm
// while idle and leads the schedule from arrival idx when the alarm fires.
type follower struct {
	alarm *simtime.Alarm
	idx   int // written by the leader that sets alarm
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
			model = stragglerModel
		}
		d := spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("ld-%02d", i)},
			Model:           model,
			Concurrency:     sc.Concurrency,
			QueueCap:        sc.QueueCap,
			MaxBatch:        sc.MaxBatch,
			MaxReplicas:     sc.MaxReplicas,
			StartTimeout:    time.Hour,
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
	clock := sess.Clock().(*simtime.Virtual)
	clock.AddRunner() // WaitReady parks its caller on the clock's books
	err := sm.WaitReady(ctx, uids...)
	clock.DoneRunner()
	if err != nil {
		return nil, err
	}
	return handles, nil
}

// drive starts the open-loop arrival schedule: it sets a crew member's
// alarm for the first arrival. The caller holds the clock.
//
// The arrivals are served by a crew of goroutines in the Leader/Followers
// pattern: the member whose alarm fires for an arrival serves it itself
// (lead), and hands the schedule on only when its request outlasts the gap
// to the next arrival. Idle members park on their alarms off the clock's
// books and keep the stacks their requests grew. How many members a
// campaign starts depends on how its requests overlap; no count, sample or
// timestamp depends on the host.
func (c *campaign) drive(ctx context.Context) {
	gap, ok := c.arr.Next()
	if !ok {
		c.end()
		return
	}
	c.setFollower(ctx, 0, gap)
}

// lead runs the schedule from arrival i on a registered goroutine. At each
// arrival it stamps the arrival, draws the gap to the next one, sets an idle
// member's alarm for it and serves the request itself. A request done before
// the next arrival takes the alarm back and sleeps to the arrival, so the
// next one costs no goroutine switch; one that is not has been overtaken by
// the follower, and lead returns. It also returns at the last arrival, once
// its request is done.
func (c *campaign) lead(ctx context.Context, i int) {
	for ; ; i++ {
		svc := c.arrive(ctx, i)
		gap, ok := c.arr.Next()
		if !ok {
			c.end()
			c.request(svc)
			return
		}
		next := c.clock.Now().Add(gap)
		f, ticket := c.setFollower(ctx, i+1, gap)
		c.request(svc)
		if !f.alarm.Cancel(ticket) {
			return // f leads from i+1
		}
		c.rejoin(f)
		c.clock.Sleep(next.Sub(c.clock.Now()))
	}
}

// arrive stamps the i-th arrival, submits its side-channel task when one is
// due and returns the backend its request goes to.
func (c *campaign) arrive(ctx context.Context, i int) int {
	svc := c.pickTarget(i)
	c.offered.Add(1)
	if c.sc.TaskEvery > 0 && i%c.sc.TaskEvery == 0 {
		c.submitTask(ctx, i)
	}
	return svc
}

// setFollower sets an idle crew member's alarm, or a new member's, to lead
// from arrival i in gap, and returns the member and the arming's ticket.
func (c *campaign) setFollower(ctx context.Context, i int, gap time.Duration) (*follower, uint64) {
	c.crewMu.Lock()
	var f *follower
	if n := len(c.idle); n > 0 {
		f, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.crewMu.Unlock()
	if f == nil {
		f = &follower{alarm: c.clock.NewAlarm()}
		c.crew.Add(1)
		go c.follow(ctx, f)
	}
	f.idx = i
	return f, f.alarm.Set(gap)
}

// follow is a crew member's life: park on its alarm, lead from the arrival
// the alarm fires for, rejoin the idle members, until the schedule ends.
func (c *campaign) follow(ctx context.Context, f *follower) {
	defer c.crew.Done()
	for f.alarm.Wait() {
		c.lead(ctx, f.idx)
		idle := c.rejoin(f)
		c.clock.DoneRunner() // the token the alarm's fire handed over
		if !idle {
			return
		}
	}
}

// rejoin puts f back among the idle members and reports whether it did:
// once the schedule has ended, members exit instead.
func (c *campaign) rejoin(f *follower) bool {
	c.crewMu.Lock()
	defer c.crewMu.Unlock()
	select {
	case <-c.ended:
		return false
	default:
	}
	c.idle = append(c.idle, f)
	return true
}

// end marks the schedule's last arrival: the idle members exit, and so does
// every busy one once its request is done.
func (c *campaign) end() {
	c.crewMu.Lock()
	defer c.crewMu.Unlock()
	close(c.ended)
	for _, f := range c.idle {
		f.alarm.Close()
	}
	c.idle = nil
}

// pickTarget maps the i-th arrival to a backend: round-robin by default,
// rng-skewed under the hotspot scenario.
func (c *campaign) pickTarget(i int) int {
	n := len(c.resolvers)
	if c.sc.Kind == KindHotspot && n > 1 {
		if c.targets.Float64() < c.sc.HotspotWeight {
			return 0
		}
		return 1 + c.targets.Intn(n-1)
	}
	return i % n
}

// campaignPrompt is the prompt of every campaign request. Its bytes reach
// only a model's token count, which reads one word (2 tokens) as it would
// for any per-request "req-%07d"; no campaign link charges bandwidth.
const campaignPrompt = "req-0000000"

// request issues one inference on a registered goroutine with a
// non-cancellable context (the inline msgq path keeps every modelled hop
// on this accounted goroutine) and records the outcome.
func (c *campaign) request(svc int) {
	start := c.clock.Now()
	_, _, err := c.resolvers[svc].Infer(c.bg, campaignPrompt, c.sc.MaxTokens)
	end := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.failed.Add(1)
	} else {
		c.completed.Add(1)
		lat := end.Sub(start)
		c.latency.Observe(lat)
		if c.sc.KeepSamples {
			c.samples = append(c.samples, lat)
		}
	}
	if end.After(c.maxDone) {
		c.maxDone = end
	}
}

// submitTask pushes one no-op compute task through the TaskManager seam.
// Submission never parks on virtual time, so the leader calls it inline.
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
// survivor. The controller stays registered (AwaitNewer does not park it), so
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

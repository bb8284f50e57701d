package experiments

// The set-up every in-process point function shares: one testbed (session +
// pilots on a virtual clock) run by one driver, and one failover step.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// testbed is a session on its own auto-advancing virtual clock together with
// its pilots, each attached to both session managers.
type testbed struct {
	*core.Session
	clock  *simtime.Virtual
	pilots []*pilot.Pilot
}

// runTestbed opens a session from scfg on a fresh auto-advancing virtual
// clock, submits one pilot per description, in order, runs drive and closes
// the session. All of it runs on the point's driver: one goroutine registered
// with the clock, so simulated time moves only while the driver sleeps on the
// clock or parks in one of the runtime's waits, and every number a point
// reports replays exactly.
func runTestbed(scfg core.SessionConfig, pilots []spec.PilotDescription, drive func(*testbed) error) error {
	clock := simtime.NewVirtualAuto(core.DefaultOrigin)
	scfg.Clock = clock
	errc := make(chan error, 1)
	clock.Go(func() {
		sess, err := core.NewSession(scfg)
		if err != nil {
			errc <- err
			return
		}
		tb := &testbed{Session: sess, clock: clock}
		for _, d := range pilots {
			var p *pilot.Pilot
			if p, err = sess.PilotManager().Submit(d); err != nil {
				break
			}
			sess.TaskManager().AddPilot(p)
			sess.ServiceManager().AddPilot(p)
			tb.pilots = append(tb.pilots, p)
		}
		if err == nil {
			err = drive(tb)
		}
		sess.Close()
		errc <- err
	})
	return <-errc
}

// shapesOf resolves a catalog platform to its node-shape partitions and
// the thinnest and fattest of them, ranked on the same weighted scale
// best-fit placement optimizes. With mixed set a homogeneous platform is an
// error: the caller needs mismatched pilots.
func shapesOf(name string, mixed bool) (shapes []platform.NodeGroup, thin, fat platform.NodeGroup, err error) {
	plat := platform.DefaultTopology().Platform(name)
	if plat == nil {
		return nil, thin, fat, fmt.Errorf("unknown platform %q", name)
	}
	shapes = plat.Shapes()
	if mixed && len(shapes) < 2 {
		return nil, thin, fat, fmt.Errorf("platform %q is homogeneous (%s); mismatched pilots need a mixed platform",
			name, platform.FormatShapes(shapes))
	}
	weight := func(s platform.NodeSpec) float64 {
		return scheduler.WeightedCapacity(s.Cores, s.GPUs, s.MemGB)
	}
	thin, fat = shapes[0], shapes[0]
	for _, g := range shapes[1:] {
		if weight(g.Spec) < weight(thin.Spec) {
			thin = g
		}
		if weight(g.Spec) > weight(fat.Spec) {
			fat = g
		}
	}
	return shapes, thin, fat, nil
}

// pilotPerShape describes one pilot per node-shape partition: platform
// node order is partition order, so consecutive Nodes-count acquisitions
// carve the partitions exactly.
func pilotPerShape(name string, shapes []platform.NodeGroup) []spec.PilotDescription {
	descs := make([]spec.PilotDescription, len(shapes))
	for i, g := range shapes {
		descs[i] = spec.PilotDescription{Platform: name, Nodes: g.Count}
	}
	return descs
}

// hostedService describes one model-serving service the way every
// experiment hosts them: GPU models take one GPU each, the noop model one
// core. Liveness probing and the start timeout are irrelevant to what the
// experiments measure, so both are pushed out to an hour.
func hostedService(name, model string) spec.ServiceDescription {
	d := spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: name, GPUs: 1},
		Model:           model,
		ProbeInterval:   time.Hour,
		StartTimeout:    time.Hour,
	}
	if model == "noop" {
		d.Cores, d.GPUs = 1, 0
	}
	return d
}

// taskBatch describes n identical tasks named <label>-0000, -0001, ….
func taskBatch(n int, label string, cores, gpus int, dur rng.DurationDist) []spec.TaskDescription {
	descs := make([]spec.TaskDescription, n)
	for i := range descs {
		descs[i] = spec.TaskDescription{
			Name: fmt.Sprintf("%s-%04d", label, i), Cores: cores, GPUs: gpus, Duration: dur,
		}
	}
	return descs
}

// failover is what one kill of a service's hosting pilot cost.
type failover struct {
	// Generation is the endpoint generation after the failover, Generations
	// how many the failover consumed.
	Generation, Generations uint64
	// Latency is the session-clock time from the kill to the re-published
	// endpoint clients can dial.
	Latency time.Duration
	// Host is the pilot hosting the service afterwards.
	Host                     string
	Replacements, Promotions int
}

// killHost shuts down the pilot hosting h and waits for the session to
// bring the service back: the handle ACTIVE again, its endpoint re-published
// past the old generation (publication precedes ACTIVE, at the same instant).
// The shutdown decides the failover on the driver: a promotion is published,
// a re-placement's bootstrap registered with the clock, before it returns, so
// a promoted service is ready without the driver parking at all.
func (tb *testbed) killHost(ctx context.Context, h *core.Service) (failover, error) {
	host, ok := tb.PilotManager().Get(h.Pilot())
	if !ok {
		return failover{}, fmt.Errorf("hosting pilot %s not found", h.Pilot())
	}
	reg := tb.EndpointRegistry()
	before := reg.Generation(h.UID())
	killed := tb.clock.Now()
	if err := host.Shutdown(); err != nil {
		return failover{}, err
	}
	if err := h.WaitReady(ctx); err != nil {
		return failover{}, fmt.Errorf("service not ready after failover: %w", err)
	}
	_, gen, live := reg.Resolve(h.UID())
	if !live || gen <= before {
		return failover{}, fmt.Errorf("failover re-publication never landed: generation %d after %d", gen, before)
	}
	return failover{
		Generation: gen, Generations: gen - before, Latency: tb.clock.Now().Sub(killed),
		Host: h.Pilot(), Replacements: h.Replacements(), Promotions: h.Promotions(),
	}, nil
}

// submitRunning submits descs through the task manager and returns once
// the present instant has nothing left to run (the clock settles), every one
// of them then executing. The caller guarantees all of them fit.
func (tb *testbed) submitRunning(ctx context.Context, descs ...spec.TaskDescription) ([]*core.Task, error) {
	tasks, err := tb.TaskManager().Submit(ctx, descs...)
	if err != nil {
		return tasks, err
	}
	tb.clock.Settle()
	for _, t := range tasks {
		if st := t.State(); st != states.TaskExecuting {
			return tasks, fmt.Errorf("task %s is %s, want %s", t.UID(), st, states.TaskExecuting)
		}
	}
	return tasks, nil
}

package experiments

// The set-up and the waits every in-process point function shares: one
// testbed (session + pilots), one failover step, one event wait on the
// session's update channel and one bounded poll for the two conditions no
// event expresses.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// testbed is a session on the scaled real-time clock together with its
// pilots, each attached to both session managers.
type testbed struct {
	*core.Session
	pilots []*pilot.Pilot
}

// newTestbed opens a session from scfg on a clock compressed scale× and
// submits one pilot per description, in order. The caller closes (or
// abandons) the embedded session.
func newTestbed(scfg core.SessionConfig, scale float64, pilots ...spec.PilotDescription) (*testbed, error) {
	scfg.Clock = simtime.NewScaled(scale, core.DefaultOrigin)
	sess, err := core.NewSession(scfg)
	if err != nil {
		return nil, err
	}
	tb := &testbed{Session: sess}
	for _, d := range pilots {
		p, err := sess.PilotManager().Submit(d)
		if err != nil {
			sess.Close()
			return nil, err
		}
		sess.TaskManager().AddPilot(p)
		sess.ServiceManager().AddPilot(p)
		tb.pilots = append(tb.pilots, p)
	}
	return tb, nil
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
// experiments measure and, at high clock compression, a 5s-sim probe
// period busy-spins, so both are pushed out to an hour.
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
// bring the service back: the re-publication past the old generation, then
// the handle ACTIVE again. A cold re-placement may publish before the
// watcher installs the new instance and counts the re-placement; WaitReady
// parks on that install, so the counters read below are ordered after it.
func (tb *testbed) killHost(ctx context.Context, h *core.Service) (failover, error) {
	host, ok := tb.PilotManager().Get(h.Pilot())
	if !ok {
		return failover{}, fmt.Errorf("hosting pilot %s not found", h.Pilot())
	}
	reg := tb.EndpointRegistry()
	before := reg.Generation(h.UID())
	killed := tb.Clock().Now()
	if err := host.Shutdown(); err != nil {
		return failover{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	_, gen, err := reg.AwaitNewer(ctx, h.UID(), before)
	if err != nil {
		return failover{}, fmt.Errorf("failover re-publication never landed: %w", err)
	}
	f := failover{Generation: gen, Generations: gen - before, Latency: tb.Clock().Now().Sub(killed)}
	if err := h.WaitReady(ctx); err != nil {
		return f, fmt.Errorf("service not ready after failover: %w", err)
	}
	f.Host, f.Replacements, f.Promotions = h.Pilot(), h.Replacements(), h.Promotions()
	return f, nil
}

// submitRunning submits descs through the task manager and returns once
// every one of them has reached AGENT_EXECUTING, counted on the session's
// update channel. The caller guarantees all of them fit, and that no other
// task starts executing meanwhile.
func (tb *testbed) submitRunning(ctx context.Context, descs ...spec.TaskDescription) ([]*core.Task, error) {
	// PUB/SUB drops on a full buffer: size it for every transition the
	// batch can publish (at most seven per task).
	sub, err := tb.SubscribeUpdates(8*len(descs), "task")
	if err != nil {
		return nil, err
	}
	defer sub.Cancel()
	tasks, err := tb.TaskManager().Submit(ctx, descs...)
	if err != nil {
		return tasks, err
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for running := 0; running < len(descs); {
		select {
		case env := <-sub.C:
			var up proto.StateUpdate
			if err := env.Decode(proto.KindStateUpdate, &up); err != nil {
				return tasks, err
			}
			if up.State == string(states.TaskExecuting) {
				running++
			}
		case <-ctx.Done():
			return tasks, fmt.Errorf("%d of %d tasks running: %w", running, len(descs), ctx.Err())
		}
	}
	return tasks, nil
}

// pollUntil re-checks cond every interval until it holds or ctx ends; the
// error names what was waited for. It is the one wall-clock poll in this
// package, kept for the two conditions nothing publishes: a scheduler
// whose grant count has stopped moving, and a filled warm-standby pool.
func pollUntil(ctx context.Context, what string, every time.Duration, cond func() bool) error {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for !cond() {
		select {
		case <-tick.C:
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
		}
	}
	return nil
}

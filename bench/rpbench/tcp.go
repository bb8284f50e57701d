package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/msgq"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/xproc"
)

const (
	// tcpClients is the closed loop's client count: one connection and one
	// goroutine each, no more than the host's two cores.
	tcpClients = 2
	// tcpWarmup is the calls each client makes before timing starts.
	tcpWarmup = 2000
	// tcpSetups is how many times the agent is spawned and warmed to time
	// set-up; the last one serves the measured phase.
	tcpSetups = 5
	// tcpSlice is how long the clients run between host-speed samples.
	tcpSlice = time.Second
	// agentScale is the agent's clock compression (xproc's default). The
	// modelled service overheads shrink to well under a microsecond of
	// wall time, so what the clients measure is the runtime's own cost.
	// The service-side timestamps in a reply are on that clock: dividing
	// their differences by agentScale gives wall time.
	agentScale = 2000
)

// tcpPromptBytes is the prompt size of each tcp_* workload.
func tcpPromptBytes(workload string) int {
	if workload == "tcp_large" {
		return 8 << 10
	}
	return 64
}

// tcpPrompt generates the workload's prompt from the seed: printable
// bytes, so the JSON body grows by exactly the prompt size.
func tcpPrompt(seed uint64, n int) string {
	src := rng.New(seed).Derive("prompt")
	var sb strings.Builder
	sb.Grow(n)
	for sb.Len() < n {
		sb.WriteByte(byte('a' + src.Intn(26)))
	}
	return sb.String()
}

// tcpRig is one spawned agent with its service and the dialed clients.
type tcpRig struct {
	proc    *xproc.Proc
	net     *msgq.Network
	clients []*service.Client
	// spawnMs and bootstrapMs split the set-up for the xproc.* layer.
	spawnMs, bootstrapMs float64
}

// newTCPRig spawns an agent process hosting one noop service and dials and
// warms the clients: everything that must happen before the first measured
// request.
func newTCPRig(ctx context.Context, cfg runConfig, prompt string, tr *Tracer) (*tcpRig, error) {
	rig := &tcpRig{}
	root, endRoot := tr.Start("tcp.setup", 0)
	defer endRoot()

	t0 := time.Now()
	var err error
	tr.Do("xproc.Spawn", root, func() {
		rig.proc, err = xproc.Spawn(ctx, xproc.AgentConfig{
			UID: "pilot.0000", Platform: "delta", Seed: cfg.Seed, Scale: agentScale,
		})
	})
	if err != nil {
		return nil, err
	}
	rig.spawnMs = msSince(t0)

	t1 := time.Now()
	var svcUID string
	tr.Do("xproc.SubmitService", root, func() {
		svcUID, err = rig.proc.SubmitService(ctx, spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{UID: "svc.0", Name: "svc", Cores: 1},
			Model:           "noop",
			Concurrency:     tcpClients,
			ProbeInterval:   time.Hour,
			StartTimeout:    time.Hour,
		})
	})
	if err != nil {
		rig.close(ctx)
		return nil, err
	}
	var ep proto.Endpoint
	tr.Do("xproc.AwaitService", root, func() { ep, err = rig.proc.AwaitService(ctx, svcUID) })
	if err != nil {
		rig.close(ctx)
		return nil, err
	}
	rig.bootstrapMs = msSince(t1)

	clock := simtime.NewReal()
	rig.net = msgq.NewNetwork(clock, rng.New(cfg.Seed).Derive("rpbench-driver"), nil)
	for i := 0; i < tcpClients; i++ {
		var cl *service.Client
		tr.Do("service.Dial", root, func() {
			cl, err = service.Dial(rig.net, clock, fmt.Sprintf("rpbench-client-%d", i), ep)
		})
		if err != nil {
			rig.close(ctx)
			return nil, err
		}
		rig.clients = append(rig.clients, cl)
	}
	var wg sync.WaitGroup
	errs := make([]error, tcpClients)
	warm := cfg.scaled(tcpWarmup)
	_, endWarm := tr.Start("tcp.warmup", root)
	for i, cl := range rig.clients {
		wg.Add(1)
		go func(i int, cl *service.Client) {
			defer wg.Done()
			for k := 0; k < warm; k++ {
				if _, _, err := cl.Infer(ctx, prompt, 0); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	endWarm()
	for _, err := range errs {
		if err != nil {
			rig.close(ctx)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return rig, nil
}

// close shuts the agent down and reports whether it exited cleanly.
func (r *tcpRig) close(ctx context.Context) error {
	for _, cl := range r.clients {
		_ = cl.Close()
	}
	if r.net != nil {
		_ = r.net.Close()
	}
	return r.proc.Shutdown(ctx)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// rtParts is the paper's split of one response time.
type rtParts struct{ comm, svc, infer time.Duration }

// splitRT splits one client-observed latency into the paper's RT
// components. service.DecomposeRT does the same but assumes client and
// service share a clock; here the service side runs agentScale times
// faster, so its intervals are scaled back to wall time first.
func splitRT(lat time.Duration, t proto.Timing) rtParts {
	p := rtParts{infer: t.InferTime() / agentScale, svc: t.ServiceTime() / agentScale}
	if p.svc < 0 {
		p.svc = 0
	}
	if p.comm = lat - p.infer - p.svc; p.comm < 0 {
		p.comm = 0
	}
	return p
}

// tcpClientLog is what one client goroutine records. The untraced run
// keeps eight bytes per request so that memory does not follow throughput;
// the traced run also keeps each reply's RT split and the spans.
type tcpClientLog struct {
	lats     []time.Duration
	sliceEnd []int // len(lats) at the end of each slice
	parts    []rtParts
	spans    *spanBuf
	root     uint64
	err      error
	badReply int64
}

// slice returns the latencies recorded in the i-th slice.
func (l *tcpClientLog) slice(i int) []time.Duration {
	lo := 0
	if i > 0 {
		lo = l.sliceEnd[i-1]
	}
	return l.lats[lo:l.sliceEnd[i]]
}

// measureTCP runs the closed loop: each client issues its next request when
// the previous reply arrives, for the given time.
func measureTCP(workload string, cfg runConfig, seconds float64, tr *Tracer, hp *hostProbe) (*phase, error) {
	ctx := context.Background()
	ph := newPhase()
	prompt := tcpPrompt(cfg.Seed, tcpPromptBytes(workload))
	childCPU := cpuTime(syscall.RUSAGE_CHILDREN)

	var rig *tcpRig
	defer func() {
		if rig != nil { // an error cut the run short: leave no agent behind
			_ = rig.close(ctx)
		}
	}()
	var setups, rawSetups, spawn, boot, shutdown []float64
	hp.Sample()
	for i := 0; i < cfg.reps(tcpSetups); i++ {
		if rig != nil {
			t := time.Now()
			var err error
			tr.Do("xproc.Shutdown", 0, func() { err = rig.close(ctx) })
			if err != nil {
				ph.violate("set-up agent %d did not shut down cleanly: %v", i-1, err)
			}
			shutdown = append(shutdown, msSince(t))
			hp.Sample()
		}
		t := time.Now()
		var err error
		if rig, err = newTCPRig(ctx, cfg, prompt, tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		raw := time.Since(t).Seconds()
		setups = append(setups, raw/hp.Lap())
		rawSetups = append(rawSetups, raw)
		spawn = append(spawn, rig.spawnMs)
		boot = append(boot, rig.bootstrapMs)
	}
	ph.setupS, ph.rawSetupS = median(setups), median(rawSetups)

	var pingUS []float64
	if tr != nil {
		for i := 0; i < 200; i++ {
			t := time.Now()
			if err := rig.proc.Ping(ctx); err != nil {
				return nil, fmt.Errorf("ping: %w", err)
			}
			pingUS = append(pingUS, float64(time.Since(t))/1e3)
		}
		hp.Sample()
	}

	// Buffers sized for the fastest plausible loop, so the measured phase
	// does not grow them.
	capPer := int((seconds+1)*40000) + 1024
	logs := make([]*tcpClientLog, tcpClients)
	for i := range logs {
		logs[i] = &tcpClientLog{lats: make([]time.Duration, 0, capPer)}
		if tr != nil {
			logs[i].parts = make([]rtParts, 0, capPer)
			logs[i].spans = tr.Buffer(4*capPer + 1)
			at := tr.Since()
			logs[i].root = logs[i].spans.Add("tcp.client", 0, at, at) // end patched after the last slice
		}
	}
	sampler := startGoroutineSampler()
	before := readCounters()
	begin := time.Now()
	// The closed loop runs in one-second slices so that the host's speed
	// can be sampled between them; a slice ends when each client's
	// request in flight at the deadline has been answered.
	for slice := 0; slice == 0 || time.Since(begin).Seconds() < seconds; slice++ {
		sliceStart := time.Now()
		deadline := sliceStart.Add(tcpSlice)
		if cfg.Smoke {
			deadline = sliceStart.Add(tcpSlice / 100)
		}
		var wg sync.WaitGroup
		for i, cl := range rig.clients {
			wg.Add(1)
			go func(log *tcpClientLog, cl *service.Client) {
				defer wg.Done()
				for log.err == nil {
					start := time.Now()
					if !start.Before(deadline) {
						break
					}
					reply, _, err := cl.Infer(ctx, prompt, 0)
					lat := time.Since(start)
					if err != nil {
						log.err = err
						break
					}
					if reply.RequestUID == "" {
						log.badReply++
					}
					log.lats = append(log.lats, lat)
					if log.spans != nil {
						// One span per request; its children are the paper's
						// RT components laid end to end. Only their sum is
						// placed exactly: communication happens on both
						// sides of the service-side interval.
						p := splitRT(lat, reply.Timing)
						log.parts = append(log.parts, p)
						s := start.Sub(tr.origin)
						id := log.spans.Add("service.Client.Infer", log.root, s, s+lat)
						log.spans.Add("rt.communication", id, s, s+p.comm)
						log.spans.Add("rt.service", id, s+p.comm, s+p.comm+p.svc)
						log.spans.Add("rt.inference", id, s+p.comm+p.svc, s+p.comm+p.svc+p.infer)
					}
				}
				log.sliceEnd = append(log.sliceEnd, len(log.lats))
			}(logs[i], cl)
		}
		wg.Wait()
		wall := time.Since(sliceStart)
		ph.wall += wall
		done := 0
		for _, log := range logs {
			done += len(log.slice(slice))
		}
		ph.addRound(float64(done)/wall.Seconds(), hp.Lap())
	}
	ph.counters = readCounters().sub(before)
	ph.goroutinesPeak = sampler.Stop()
	for _, log := range logs {
		if log.spans != nil {
			log.spans.spans[0].EndNs = int64(tr.Since())
			log.spans.Flush()
		}
	}

	t := time.Now()
	var err error
	tr.Do("xproc.Shutdown", 0, func() { err = rig.close(ctx) })
	rig = nil
	if err != nil {
		ph.violate("agent did not shut down cleanly: %v", err)
	}
	shutdown = append(shutdown, msSince(t))
	// The agents are reaped now, so their CPU shows in RUSAGE_CHILDREN; it
	// includes their boot and warm-up, which is small next to the run.
	ph.counters.cpu += cpuTime(syscall.RUSAGE_CHILDREN) - childCPU

	var all []time.Duration
	var parts []rtParts
	for i, log := range logs {
		all = append(all, log.lats...)
		parts = append(parts, log.parts...)
		ph.completed += int64(len(log.lats))
		ph.attempted += int64(len(log.lats))
		if log.err != nil {
			ph.attempted++
			ph.failed++
			ph.violate("client %d: %v", i, log.err)
		}
		if log.badReply != 0 {
			ph.violate("client %d: %d replies without a request UID", i, log.badReply)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no request completed")
	}

	// Latency quantiles per slice, each scaled by the host slowdown around
	// its slice; the run reports the median slice.
	var p50s, p90s []float64
	for slice, slowdown := range ph.slowdowns {
		var lats []time.Duration
		for _, log := range logs {
			lats = append(lats, log.slice(slice)...)
		}
		if len(lats) == 0 {
			continue
		}
		sortDurations(lats)
		p50s = append(p50s, durQuantileUS(lats, 0.5)/slowdown)
		p90s = append(p90s, durQuantileUS(lats, 0.9)/slowdown)
	}
	ph.latP50, ph.latP90 = median(p50s), median(p90s)
	sortDurations(all)
	ph.rawLatP50, ph.rawLatP90 = durQuantileUS(all, 0.5), durQuantileUS(all, 0.9)

	if tr != nil {
		ph.extra["rt.lat_p99_us"] = durQuantileUS(all, 0.99)
		ph.extra["rt.lat_p999_us"] = durQuantileUS(all, 0.999)
		for name, pick := range map[string]func(rtParts) time.Duration{
			"rt.communication_us_p50": func(p rtParts) time.Duration { return p.comm },
			"rt.service_us_p50":       func(p rtParts) time.Duration { return p.svc },
			"rt.inference_us_p50":     func(p rtParts) time.Duration { return p.infer },
		} {
			part := make([]time.Duration, len(parts))
			for i, p := range parts {
				part[i] = pick(p)
			}
			sortDurations(part)
			ph.extra[name] = durQuantileUS(part, 0.5)
		}
		ph.extra["xproc.spawn_ms"] = median(spawn)
		ph.extra["xproc.svc_bootstrap_ms"] = median(boot)
		ph.extra["xproc.shutdown_ms"] = median(shutdown)
		ph.extra["xproc.ping_rtt_us"] = median(pingUS)
		ph.extra["core.service_ready_ms"] = median(boot)
	}
	return ph, nil
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

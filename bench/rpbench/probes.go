package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/llm"
	"repro/internal/loadbal"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// Probes drive one layer's public entry points in isolation, with the
// request shape of the workload being traced, and report wall time and
// allocations per call. A figure is the median of probeBatches batches.
// They run after the workload in the traced run, never in the untraced one.

const probeBatches = 5

// probeSet collects probe results by metric name. A probe that cannot run
// records a violation instead of a number.
type probeSet struct {
	cfg   runConfig
	out   map[string]float64
	fails []string
}

func (p *probeSet) fail(probe string, err error) {
	p.fails = append(p.fails, fmt.Sprintf("probe %s: %v", probe, err))
}

// n shrinks a probe's call count for -smoke.
func (p *probeSet) n(calls int) int {
	if p.cfg.Smoke {
		calls /= 50
		if calls < 8 {
			calls = 8
		}
	}
	return calls
}

// perCallNs runs batch(n) probeBatches times and returns the median wall
// nanoseconds per call.
func perCallNs(n int, batch func(n int)) float64 {
	per := make([]float64, probeBatches)
	for i := range per {
		t := time.Now()
		batch(n)
		per[i] = float64(time.Since(t)) / float64(n)
	}
	return median(per)
}

// perCallTimedNs is perCallNs for batches that time only part of each
// iteration themselves and return the summed duration.
func perCallTimedNs(n int, batch func(n int) time.Duration) float64 {
	per := make([]float64, probeBatches)
	for i := range per {
		per[i] = float64(batch(n)) / float64(n)
	}
	return median(per)
}

// perCallAllocs returns heap allocations per call over one batch.
func perCallAllocs(n int, batch func(n int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	batch(n)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// probesFor lists the probe groups on each workload's path. A layer that
// is not listed reads 0 on that workload: the prediction is that changing
// it moves nothing there.
var probesFor = map[string][]func(*probeSet, string){
	"campaign_steady": {
		probeSimtime, probeLoadgen, probeRegistry, probeResolver, probeInproc,
		probeEnvelopeSmall, probeServingSubmit, probeLLMNoop, probeMetrics, probeCoreSetup,
	},
	"campaign_batched": {
		probeSimtime, probeLoadgen, probeRegistry, probeBalancer, probeLoadbal, probeInproc,
		probeEnvelopeSmall, probeServingBatched, probeLLMVit, probeMetrics, probeCoreSetup,
	},
	"tcp_small":    {probeTCP, probeEnvelopeSmall, probeServingSubmit, probeLLMNoop},
	"tcp_large":    {probeTCP, probeProtoLarge, probeServingSubmit, probeLLMNoop},
	"task_journal": {probeScheduler, probeRouter, probePilot, probeExecutor, probeJournalAppend, probeTaskNoJournal},
	"task_recover": {probeJournalAppend},
}

// runProbes runs the probe groups on the workload's path.
func runProbes(workload string, cfg runConfig) *probeSet {
	p := &probeSet{cfg: cfg, out: make(map[string]float64)}
	for _, probe := range probesFor[workload] {
		func() {
			// A call that fails inside a timed loop panics rather than
			// being checked per iteration; report it as a failed probe.
			defer func() {
				if r := recover(); r != nil {
					p.fails = append(p.fails, fmt.Sprintf("probe panicked: %v", r))
				}
			}()
			probe(p, workload)
		}()
	}
	return p
}

// --- simtime ----------------------------------------------------------------

func probeSimtime(p *probeSet, _ string) {
	v := simtime.NewVirtualAuto(core.DefaultOrigin)
	const sleepers = 64
	// 64 registered goroutines sleep distinct periods, so the heap always
	// holds 64 pending sleepers and every Sleep is one wake-up.
	p.out["simtime.sleep_wake_ns"] = perCallNs(p.n(sleepers*400), func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < sleepers; g++ {
			d := time.Millisecond + time.Duration(g)*time.Microsecond
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for i := 0; i < n/sleepers; i++ {
					v.Sleep(d)
				}
			})
		}
		wg.Wait()
	})
	p.out["simtime.go_spawn_ns"] = perCallNs(p.n(20000), func(n int) {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			v.Go(wg.Done)
		}
		wg.Wait()
	})
	p.out["simtime.timer_ns"] = perCallNs(p.n(100000), func(n int) {
		for i := 0; i < n; i++ {
			v.NewTimer(time.Hour).Stop()
		}
	})
}

// --- loadgen ----------------------------------------------------------------

func probeLoadgen(p *probeSet, workload string) {
	rate := campaignScenario(workload, p.cfg.Seed, 1).Rate
	p.out["loadgen.poisson_next_ns"] = perCallNs(p.n(200000), func(n int) {
		arr := loadgen.PoissonArrivals(rng.New(p.cfg.Seed).Derive("arrivals"), rate, n)
		for {
			if _, ok := arr.Next(); !ok {
				return
			}
		}
	})
}

// --- service, loadbal -------------------------------------------------------

// probeFleet is a registry with the campaigns' four services published.
func probeFleet(model string) (*service.EndpointRegistry, []proto.Endpoint) {
	reg := service.NewEndpointRegistry()
	eps := make([]proto.Endpoint, 4)
	for i := range eps {
		eps[i] = proto.Endpoint{
			ServiceUID: fmt.Sprintf("svc.%02d", i), Model: model,
			Address: fmt.Sprintf("probe//svc.%02d", i), Protocol: "msgq",
		}
		if _, err := reg.Publish(eps[i]); err != nil {
			panic(err) // no fence is set, so Publish cannot refuse
		}
	}
	return reg, eps
}

func probeRegistry(p *probeSet, workload string) {
	model := campaignScenario(workload, p.cfg.Seed, 1).Model
	reg, eps := probeFleet(model)
	p.out["service.registry_resolve_ns"] = perCallNs(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			if _, _, ok := reg.Resolve(eps[i&3].ServiceUID); !ok {
				panic("published endpoint does not resolve")
			}
		}
	})
	p.out["service.registry_publish_ns"] = perCallNs(p.n(100000), func(n int) {
		for i := 0; i < n; i++ {
			_, _ = reg.Publish(eps[i&3])
		}
	})
}

// fourView is a LoadView over four members with fresh reports.
type fourView [4]int

func (v *fourView) Len() int                { return len(v) }
func (v *fourView) Load(i int) (int, int64) { return v[i], 1 }

func pickerNs(p *probeSet, pk loadbal.Picker) float64 {
	view := &fourView{3, 1, 4, 1}
	sink := 0
	ns := perCallNs(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			sink += pk.PickIndex(view, 0)
		}
	})
	_ = sink
	return ns
}

func probeLoadbal(p *probeSet, _ string) {
	p.out["loadbal.p2c_pick_ns"] = pickerNs(p, loadbal.NewP2C(p.cfg.Seed))
	p.out["loadbal.round_robin_pick_ns"] = pickerNs(p, loadbal.NewRoundRobin())
}

func probeBalancer(p *probeSet, workload string) {
	reg, eps := probeFleet(campaignScenario(workload, p.cfg.Seed, 1).Model)
	for _, ep := range eps[1:] {
		reg.AddMember(eps[0].ServiceUID, ep.ServiceUID)
	}
	now := core.DefaultOrigin
	for i, ep := range eps {
		reg.ReportLoad(ep.ServiceUID, service.Load{Queued: i, At: now})
	}
	dial := func(proto.Endpoint) (service.Caller, error) { return nil, fmt.Errorf("probe never dials") }
	bal, err := service.NewBalancer(reg, eps[0].ServiceUID, dial, service.BalancerOptions{
		Picker: loadbal.NewP2C(p.cfg.Seed), Now: func() time.Time { return now },
	})
	if err != nil {
		p.fail("service.balancer_pick_ns", err)
		return
	}
	defer bal.Close()
	p.out["service.balancer_pick_ns"] = perCallNs(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			_ = bal.Pick()
		}
	})
	p.out["service.registry_report_load_ns"] = perCallNs(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			reg.ReportLoad(eps[i&3].ServiceUID, service.Load{Queued: i & 7, InFlight: 2, At: now})
		}
	})
}

// noopServer is a started single-worker noop serving.Server on the wall
// clock with no modelled parse overhead: what is left is the runtime's own
// queue, handoff and reply cost.
func noopServer(seed uint64) (*serving.Server, error) {
	noop, err := llm.Lookup("noop")
	if err != nil {
		return nil, err
	}
	clock := simtime.NewReal()
	src := rng.New(seed).Derive("probe-serving")
	srv, err := serving.New(serving.Config{
		UID: "svc.00", Backend: serving.LLMBackend{M: llm.NewInstance(noop, clock, src.Derive("llm"))},
		Clock: clock, Src: src, Concurrency: 1, ParseOverhead: rng.ConstDuration(0),
	})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// probeResolver prices one whole request through the stack the steady
// campaign uses, minus every modelled delay: registry resolve, resolver,
// service.Client, envelope, inproc msgq over a zero-latency link, serving
// queue and worker handoff, noop backend, reply decode.
func probeResolver(p *probeSet, _ string) {
	srv, err := noopServer(p.cfg.Seed)
	if err != nil {
		p.fail("service.resolver_infer_ns", err)
		return
	}
	defer srv.Stop()
	clock := simtime.NewReal()
	net := msgq.NewNetwork(clock, rng.New(p.cfg.Seed).Derive("probe-net"), nil)
	defer net.Close()
	bound, err := net.Bind("probe//svc.00", srv.Handler())
	if err != nil {
		p.fail("service.resolver_infer_ns", err)
		return
	}
	reg := service.NewEndpointRegistry()
	if _, err := reg.Publish(proto.Endpoint{ServiceUID: "svc.00", Model: "noop", Address: bound.Addr(), Protocol: "msgq"}); err != nil {
		p.fail("service.resolver_infer_ns", err)
		return
	}
	res, err := service.NewResolver(reg, "svc.00", func(ep proto.Endpoint) (service.Caller, error) {
		return service.Dial(net, clock, "probe-client", ep)
	}, 0)
	if err != nil {
		p.fail("service.resolver_infer_ns", err)
		return
	}
	defer res.Close()
	ctx := context.Background()
	p.out["service.resolver_infer_ns"] = perCallNs(p.n(50000), func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := res.Infer(ctx, "req-0000001", 0); err != nil {
				panic(err)
			}
		}
	})
}

// --- msgq, proto ------------------------------------------------------------

func echo(env proto.Envelope) proto.Envelope {
	return proto.Envelope{Kind: proto.KindReply, ID: env.ID, From: env.To, To: env.From, Body: env.Body}
}

// probeRequest is an inference request with a prompt of the given size, as
// service.Client builds it.
func probeRequest(promptBytes int) proto.InferenceRequest {
	return proto.InferenceRequest{
		RequestUID: "probe-client.req.000001", ClientUID: "probe-client",
		Model: "noop", Prompt: strings.Repeat("x", promptBytes),
	}
}

// requestEnvelope wraps probeRequest in an envelope.
func requestEnvelope(promptBytes int) proto.Envelope {
	env, err := proto.NewEnvelope(proto.KindRequest, 1, "probe-client", "svc.00", time.Time{}, probeRequest(promptBytes))
	if err != nil {
		panic(err) // value-typed payload: NewEnvelope cannot fail
	}
	return env
}

func probeInproc(p *probeSet, _ string) {
	net := msgq.NewNetwork(simtime.NewReal(), rng.New(p.cfg.Seed).Derive("probe-net"), nil)
	defer net.Close()
	if _, err := net.Bind("probe//echo", echo); err != nil {
		p.fail("msgq.inproc_request_ns", err)
		return
	}
	cl, err := net.Dial("probe-client", "probe//echo")
	if err != nil {
		p.fail("msgq.inproc_request_ns", err)
		return
	}
	defer cl.Close()
	env := requestEnvelope(11)
	ctx := context.Background()
	loop := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.Request(ctx, env); err != nil {
				panic(err)
			}
		}
	}
	p.out["msgq.inproc_request_ns"] = perCallNs(p.n(500000), loop)
	p.out["msgq.inproc_allocs"] = perCallAllocs(p.n(100000), loop)

	pub, err := net.BindPub("probe//updates")
	if err != nil {
		p.fail("msgq.publish_fanout_ns", err)
		return
	}
	defer pub.Close()
	for i := 0; i < 4; i++ {
		sub, err := net.Subscribe(fmt.Sprintf("probe-sub-%d", i), "probe//updates", 1)
		if err != nil {
			p.fail("msgq.publish_fanout_ns", err)
			return
		}
		defer sub.Cancel()
	}
	upd, _ := proto.NewEnvelope(proto.KindStateUpdate, 1, "probe", "", time.Time{}, proto.StateUpdate{State: "DONE"})
	p.out["msgq.publish_fanout_ns"] = perCallNs(p.n(200000), func(n int) {
		for i := 0; i < n; i++ {
			pub.Publish("task", upd)
		}
	})
}

func probeTCP(p *probeSet, workload string) {
	srv, err := msgq.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		p.fail("msgq.tcp_rtt", err)
		return
	}
	defer srv.Close()
	cl, err := msgq.DialTCP(srv.Addr())
	if err != nil {
		p.fail("msgq.tcp_rtt", err)
		return
	}
	defer cl.Close()
	ctx := context.Background()
	roundTrips := func(env proto.Envelope) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := cl.Request(ctx, env); err != nil {
					panic(err)
				}
			}
		}
	}
	size := tcpPromptBytes(workload)
	name := "msgq.tcp_rtt_us_64B"
	if size > 64 {
		name = "msgq.tcp_rtt_us_8KiB"
	}
	env := requestEnvelope(size)
	p.out[name] = perCallNs(p.n(20000), roundTrips(env)) / 1e3
	p.out["msgq.tcp_allocs_per_rtt"] = perCallAllocs(p.n(10000), roundTrips(env))

	// Two goroutines share the one connection, as two requests in flight
	// on a pooled client do.
	kib := requestEnvelope(1 << 10)
	p.out["msgq.tcp_rtt_us_contended"] = perCallNs(p.n(20000), func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				roundTrips(kib)(n / 2)
			}()
		}
		wg.Wait()
	}) / 1e3 * 2 // per-call time as each goroutine sees it
}

func envelopeNewNs(p *probeSet, promptBytes int) float64 {
	req := probeRequest(promptBytes)
	var sink proto.Envelope
	ns := perCallNs(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = proto.NewEnvelope(proto.KindRequest, uint64(i), "probe-client", "svc.00", time.Time{}, req)
		}
	})
	_ = sink
	return ns
}

func probeEnvelopeSmall(p *probeSet, _ string) {
	p.out["proto.envelope_new_ns_64B"] = envelopeNewNs(p, 64)
}

func probeProtoLarge(p *probeSet, _ string) {
	const size = 8 << 10
	p.out["proto.envelope_new_ns_8KiB"] = envelopeNewNs(p, size)
	env := requestEnvelope(size)
	buf := make([]byte, 0, 2*size)
	p.out["proto.append_frame_ns_8KiB"] = perCallNs(p.n(20000), func(n int) {
		for i := 0; i < n; i++ {
			e := env // a fresh copy has no cached body, so the JSON encode is paid
			var err error
			if buf, err = proto.AppendFrame(buf[:0], &e); err != nil {
				panic(err)
			}
		}
	})
	payload := buf[4:] // after the u32 length prefix
	var decoded proto.Envelope
	p.out["proto.decode_frame_ns_8KiB"] = perCallNs(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			var err error
			if decoded, err = proto.DecodeFrame(payload); err != nil {
				panic(err)
			}
		}
	})
	p.out["proto.envelope_decode_ns_8KiB"] = perCallNs(p.n(10000), func(n int) {
		for i := 0; i < n; i++ {
			var req proto.InferenceRequest
			if err := decoded.Decode(proto.KindRequest, &req); err != nil {
				panic(err)
			}
		}
	})
}

// --- serving, llm -----------------------------------------------------------

func servingCounts(p *probeSet, srv *serving.Server) {
	p.out["serving.processed"] += float64(srv.Processed())
	p.out["serving.rejected"] += float64(srv.Rejected())
	p.out["serving.deduped"] += float64(srv.Deduped())
}

func probeServingSubmit(p *probeSet, _ string) {
	srv, err := noopServer(p.cfg.Seed)
	if err != nil {
		p.fail("serving.submit_ns", err)
		return
	}
	defer srv.Stop()
	ctx := context.Background()
	p.out["serving.submit_ns"] = perCallNs(p.n(50000), func(n int) {
		for i := 0; i < n; i++ {
			// Distinct UIDs, as real clients send: a repeat would be
			// answered from the dedup memory without reaching a worker.
			req := proto.InferenceRequest{RequestUID: fmt.Sprintf("probe.req.%07d", i), Model: "noop", Prompt: "req-0000001"}
			if _, err := srv.Submit(ctx, req); err != nil {
				panic(err)
			}
		}
	})
	servingCounts(p, srv)
}

// vitInstance is a loaded vit-base model on an auto-advancing virtual
// clock: its inference sleeps cost host time only for the sleep and wake.
func vitInstance(seed uint64) (*simtime.Virtual, *llm.Instance, error) {
	vit, err := llm.Lookup("vit-base")
	if err != nil {
		return nil, nil, err
	}
	v := simtime.NewVirtualAuto(core.DefaultOrigin)
	m := llm.NewInstance(vit, v, rng.New(seed).Derive("probe-llm"))
	done := make(chan struct{})
	v.Go(func() { m.Load(); close(done) })
	<-done
	return v, m, nil
}

// onClock runs fn on a goroutine registered with the virtual clock and
// waits for it.
func onClock(v *simtime.Virtual, fn func()) {
	done := make(chan struct{})
	v.Go(func() { fn(); close(done) })
	<-done
}

func probeServingBatched(p *probeSet, _ string) {
	v, m, err := vitInstance(p.cfg.Seed)
	if err != nil {
		p.fail("serving.submit_batched_ns_per_req", err)
		return
	}
	srv, err := serving.New(serving.Config{
		UID: "svc.00", Backend: serving.LLMBackend{M: m}, Clock: v,
		Src: rng.New(p.cfg.Seed).Derive("probe-serving"), Concurrency: 2, MaxBatch: 8, QueueCap: 200000,
	})
	if err != nil {
		p.fail("serving.submit_batched_ns_per_req", err)
		return
	}
	var startErr error
	onClock(v, func() { _, startErr = srv.Start() })
	if startErr != nil {
		p.fail("serving.submit_batched_ns_per_req", startErr)
		return
	}
	defer srv.Stop()
	ctx := context.Background()
	const submitters = 64
	seq := 0
	p.out["serving.submit_batched_ns_per_req"] = perCallNs(p.n(submitters*200), func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			base := seq
			seq += n / submitters
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for i := 0; i < n/submitters; i++ {
					req := proto.InferenceRequest{
						RequestUID: fmt.Sprintf("probe.req.%07d", base+i), Model: "vit-base",
						Prompt: "req-0000001", MaxTokens: 8,
					}
					if _, err := srv.Submit(ctx, req); err != nil {
						panic(err)
					}
				}
			})
		}
		wg.Wait()
	})
	servingCounts(p, srv)
}

func probeLLMNoop(p *probeSet, _ string) {
	noop, err := llm.Lookup("noop")
	if err != nil {
		p.fail("llm.infer_noop_ns", err)
		return
	}
	m := llm.NewInstance(noop, simtime.NewReal(), rng.New(p.cfg.Seed).Derive("probe-llm"))
	p.out["llm.infer_noop_ns"] = perCallNs(p.n(2000000), func(n int) {
		for i := 0; i < n; i++ {
			_ = m.Infer("req-0000001", 0)
		}
	})
}

func probeLLMVit(p *probeSet, _ string) {
	v, m, err := vitInstance(p.cfg.Seed)
	if err != nil {
		p.fail("llm.infer_vit_ns", err)
		return
	}
	p.out["llm.infer_vit_ns"] = perCallNs(p.n(50000), func(n int) {
		onClock(v, func() {
			for i := 0; i < n; i++ {
				_ = m.Infer("req-0000001", 8)
			}
		})
	})
	items := make([]llm.BatchItem, 8)
	for i := range items {
		items[i] = llm.BatchItem{Prompt: "req-0000001", MaxTokens: 8}
	}
	p.out["llm.infer_batch8_ns_per_item"] = perCallNs(p.n(10000), func(n int) {
		onClock(v, func() {
			for i := 0; i < n; i++ {
				_ = m.InferBatch(items)
			}
		})
	}) / 8
	src := rng.New(p.cfg.Seed).Derive("probe-text")
	p.out["llm.generate_text_ns"] = perCallNs(p.n(500000), func(n int) {
		for i := 0; i < n; i++ {
			_ = llm.GenerateText(src, "vit-base", 6)
		}
	})
}

// --- metrics ----------------------------------------------------------------

func probeMetrics(p *probeSet, workload string) {
	// Latencies spread like the campaign's, arrival stamps at its rate.
	sc := campaignScenario(workload, p.cfg.Seed, 1)
	gap := time.Duration(float64(time.Second) / sc.Rate)
	lat := func(i int) time.Duration { return 120*time.Microsecond + time.Duration(i%97)*time.Microsecond }
	sk := metrics.NewSketch(0)
	p.out["metrics.sketch_observe_ns"] = perCallNs(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			sk.Observe(lat(i))
		}
	})
	p.out["metrics.sketch_quantile_ns"] = perCallNs(p.n(20000), func(n int) {
		for i := 0; i < n; i++ {
			_ = sk.Quantile(0.99)
		}
	})
	series := metrics.NewIntervalSeries(core.DefaultOrigin, 5*time.Second, 0)
	at := core.DefaultOrigin
	p.out["metrics.series_offered_ns"] = perCallNs(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			at = at.Add(gap)
			series.Offered(at)
		}
	})
	at = core.DefaultOrigin
	p.out["metrics.series_completed_ns"] = perCallNs(p.n(1000000), func(n int) {
		for i := 0; i < n; i++ {
			at = at.Add(gap)
			series.Completed(at, lat(i))
		}
	})
}

// --- scheduler, router, pilot, executor -------------------------------------

// heteroNodes returns the first count nodes of a private hetero campus:
// the 32 fat nodes the task workloads' first pilot holds.
func heteroNodes(count int) []*platform.Node {
	return platform.DefaultTopology().Platform("hetero").Nodes()[:count]
}

// grantLoop submits one request at a time and releases each grant.
func grantLoop(sched *scheduler.Scheduler, done <-chan scheduler.Placement, cores func(i int) int) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			if err := sched.Submit(scheduler.Request{UID: "probe", Cores: cores(i)}); err != nil {
				panic(err)
			}
			pl := <-done
			sched.Release(pl.Alloc)
		}
	}
}

func probeScheduler(p *probeSet, _ string) {
	taskCores := func(i int) int { return 1 + i%4 }
	{
		done := make(chan scheduler.Placement, 1) // one request in flight at a time
		sched := scheduler.New(heteroNodes(32), func(pl scheduler.Placement) { done <- pl })
		p.out["scheduler.submit_grant_release_ns"] = perCallNs(p.n(50000), grantLoop(sched, done, taskCores))
		p.out["scheduler.snapshot_ns"] = perCallTimedNs(p.n(50000), func(n int) time.Duration {
			var total time.Duration
			for i := 0; i < n; i++ {
				// A grant and release between snapshots, so each one
				// misses the generation cache as a router's does.
				grantLoop(sched, done, taskCores)(1)
				t := time.Now()
				_ = sched.Snapshot()
				total += time.Since(t)
			}
			return total
		})
		sched.Close()
	}
	// Backfill with a blocked head: one node with one core free, an 8-core
	// head that cannot start, depth 2-core fillers that do not fit either,
	// and the 1-core probe request that does.
	for _, depth := range []int{16, 4096} {
		node := platform.NewNode("probe-n0", platform.NodeSpec{Cores: 8, MemGB: 64})
		if node.TryAlloc(7, 0, 7) == nil {
			p.fail("scheduler.backfill_grant", fmt.Errorf("set-up allocation refused"))
			return
		}
		done := make(chan scheduler.Placement, 1)
		sched := scheduler.New([]*platform.Node{node}, func(pl scheduler.Placement) { done <- pl },
			scheduler.WithPolicy(scheduler.Backfill(scheduler.BackfillConfig{MaxBypass: -1, MaxDelay: -1})))
		_ = sched.Submit(scheduler.Request{UID: "head", Cores: 8, Priority: 100})
		for i := 0; i < depth; i++ {
			_ = sched.Submit(scheduler.Request{UID: fmt.Sprintf("filler-%d", i), Cores: 2, Priority: 10 + i%4*10})
		}
		name := fmt.Sprintf("scheduler.backfill_grant_ns_depth%d", depth)
		p.out[name] = perCallNs(p.n(20000), grantLoop(sched, done, func(int) int { return 1 }))
		sched.Close()
	}
}

func probeRouter(p *probeSet, _ string) {
	ts, err := newTaskSession(p.cfg.Seed, "", nil, 0)
	if err != nil {
		p.fail("router", err)
		return
	}
	defer ts.sess.Close()
	targets := []router.Target{ts.pilots[0], ts.pilots[1]}
	for name, metric := range map[string]string{
		router.NameRoundRobin:  "router.round_robin_ns",
		router.NameCapacityFit: "router.capacity_fit_ns",
	} {
		rt, err := router.ByName(name)
		if err != nil {
			p.fail(metric, err)
			continue
		}
		p.out[metric] = perCallNs(p.n(200000), func(n int) {
			for i := 0; i < n; i++ {
				if _, err := rt.Route(targets, spec.TaskDescription{Name: "rpbench-task", Cores: 1 + i%4}); err != nil {
					panic(err)
				}
			}
		})
	}
}

func probePilot(p *probeSet, _ string) {
	clock := simtime.NewScaled(1e6, core.DefaultOrigin)
	src := rng.New(p.cfg.Seed)
	var launchMs []float64
	var pl *pilot.Pilot
	for i := 0; i < probeBatches; i++ {
		if pl != nil {
			_ = pl.Shutdown()
		}
		net := msgq.NewNetwork(clock, src.Derive("probe-net"), nil)
		t := time.Now()
		var err error
		pl, err = pilot.Launch(pilot.Config{
			Clock: clock, Src: src.Derive("probe-pilot"), Net: net,
			Platform:        platform.DefaultTopology().Platform("hetero"),
			BootTime:        rng.ConstDuration(0),
			PublishOverhead: rng.ConstDuration(0),
			LaunchModel:     &platform.LaunchModel{},
		}, spec.PilotDescription{UID: fmt.Sprintf("probe.pilot.%d", i), Platform: "hetero", Nodes: 32})
		if err != nil {
			p.fail("pilot.launch_ms", err)
			return
		}
		launchMs = append(launchMs, msSince(t))
	}
	defer pl.Shutdown()
	p.out["pilot.launch_ms"] = median(launchMs)

	ctx := context.Background()
	seq := 0
	p.out["pilot.task_lifecycle_us"] = perCallNs(p.n(5000), func(n int) {
		uids := make([]string, n)
		for i := range uids {
			seq++
			uids[i] = fmt.Sprintf("probe.task.%07d", seq)
			_, err := pl.SubmitTask(ctx, spec.TaskDescription{
				UID: uids[i], Name: "rpbench-task", Cores: 1 + i%4,
				Func: func(context.Context) error { return nil },
			})
			if err != nil {
				panic(err)
			}
		}
		if err := pl.WaitTasks(ctx, uids...); err != nil {
			panic(err)
		}
	}) / 1e3
}

func probeExecutor(p *probeSet, _ string) {
	clock := simtime.NewScaled(1e6, core.DefaultOrigin)
	ex := executor.New(clock, rng.New(p.cfg.Seed).Derive("probe-exec"), platform.LaunchModel{})
	done := make(chan scheduler.Placement, 1)
	sched := scheduler.New(heteroNodes(32), func(pl scheduler.Placement) { done <- pl })
	defer sched.Close()
	ctx := context.Background()
	d := spec.TaskDescription{UID: "probe.task", Name: "rpbench-task", Cores: 1, Func: func(context.Context) error { return nil }}
	p.out["executor.execute_ns"] = perCallTimedNs(p.n(50000), func(n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			if err := sched.Submit(scheduler.Request{UID: d.UID, Cores: 1}); err != nil {
				panic(err)
			}
			pl := <-done
			t := time.Now()
			res := ex.Execute(ctx, sched, pl, d) // releases the allocation
			total += time.Since(t)
			if res.Err != nil {
				panic(res.Err)
			}
		}
		return total
	})
}

// --- journal, core ----------------------------------------------------------

func probeJournalAppend(p *probeSet, _ string) {
	path := filepath.Join(p.cfg.TmpDir, "probe_append.wal")
	w, err := journal.Open(journal.Config{
		Path: path, Clock: simtime.NewScaled(1e6, core.DefaultOrigin), FlushEvery: time.Hour,
	})
	if err != nil {
		p.fail("journal.append_ns", err)
		return
	}
	body := journal.TransitionBody{
		Entity: "task", UID: "session.0000beef.task.000001",
		From: "AGENT_SCHEDULING", To: "AGENT_EXECUTING", At: core.DefaultOrigin,
	}
	p.out["journal.append_ns"] = perCallNs(p.n(50000), func(n int) {
		for i := 0; i < n; i++ {
			if err := w.Append(journal.KindTransition, body); err != nil {
				panic(err)
			}
		}
	})
	if err := w.Close(); err != nil {
		p.fail("journal.append_ns", err)
	}
	_ = os.Remove(path)
}

// probeTaskNoJournal runs the task_journal stream on a session without a
// journal: what the managers, router, pilot, scheduler and executor cost.
func probeTaskNoJournal(p *probeSet, _ string) {
	ctx := context.Background()
	n := p.cfg.scaled(taskRoundTasks)
	per := make([]float64, probeBatches)
	for i := range per {
		ts, err := newTaskSession(p.cfg.Seed, "", nil, 0)
		if err != nil {
			p.fail("core.task_nojournal_us_per_op", err)
			return
		}
		st, err := runTaskStream(ctx, ts, n, nil, 0)
		ts.sess.Close()
		if err != nil {
			p.fail("core.task_nojournal_us_per_op", err)
			return
		}
		per[i] = float64(st.submitWall+st.drainWall) / 1e3 / float64(n)
	}
	p.out["core.task_nojournal_us_per_op"] = median(per)
}

// probeCoreSetup prices the set-up a campaign performs inside loadgen.Run,
// where the benchmark cannot put spans: session, one delta pilot, the four
// services of the workload's model until all are ACTIVE.
func probeCoreSetup(p *probeSet, workload string) {
	sc := campaignScenario(workload, p.cfg.Seed, 1).WithDefaults()
	model := sc.Model
	if model == "" {
		model = "noop"
	}
	var sessMs, pilotMs, readyMs []float64
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		sess, err := core.NewSession(core.SessionConfig{
			Seed: p.cfg.Seed, Clock: simtime.NewVirtualAuto(core.DefaultOrigin), FastBoot: true,
		})
		if err != nil {
			p.fail("core.session_new_ms", err)
			return
		}
		sessMs = append(sessMs, msSince(t0))
		t1 := time.Now()
		pl, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 128, GPUs: 8})
		if err != nil {
			sess.Close()
			p.fail("core.pilot_submit_ms", err)
			return
		}
		sess.ServiceManager().AddPilot(pl)
		pilotMs = append(pilotMs, msSince(t1))
		t2 := time.Now()
		uids := make([]string, sc.Services)
		for k := range uids {
			d := spec.ServiceDescription{
				TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("probe-%02d", k)},
				Model:           model, Concurrency: sc.Concurrency, QueueCap: sc.QueueCap, MaxBatch: sc.MaxBatch,
				StartTimeout: time.Hour, ProbeInterval: 10000 * time.Hour,
			}
			if model == "noop" {
				d.Cores = 1
			} else {
				d.GPUs = 1
			}
			h, err := sess.ServiceManager().Submit(d)
			if err != nil {
				sess.Close()
				p.fail("core.service_ready_ms", err)
				return
			}
			uids[k] = h.UID()
		}
		if err := sess.ServiceManager().WaitReady(context.Background(), uids...); err != nil {
			sess.Close()
			p.fail("core.service_ready_ms", err)
			return
		}
		readyMs = append(readyMs, msSince(t2))
		sess.Close()
	}
	p.out["core.session_new_ms"] = median(sessMs)
	p.out["core.pilot_submit_ms"] = median(pilotMs)
	p.out["core.service_ready_ms"] = median(readyMs)
	p.out["pilot.launch_ms"] = median(pilotMs)
}

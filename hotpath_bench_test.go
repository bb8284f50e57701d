package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/loadgen"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// TestInferenceRoundTripAllocBudget pins the end-to-end allocation cost of
// one client→service→client round trip (envelope construction, transport,
// queueing, serving, reply decode, RT decomposition) so the hot-path work
// of this PR — inline REQ/REP, pooled serving jobs, typed envelope decode
// — cannot silently regress. The seed spent 41 allocs per round trip;
// PR 1 brought it to 17 and PR 8's lazy envelope encoding to 11. The
// budget admits modest headroom over the current cost.
func TestInferenceRoundTripAllocBudget(t *testing.T) {
	sess, err := core.NewSession(core.SessionConfig{
		Seed: 1, Clock: simtime.NewScaled(100000, core.DefaultOrigin), FastBoot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	sm := sess.ServiceManager()
	sm.AddPilot(p)
	inst, err := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1},
		Model:           "noop",
		ProbeInterval:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sm.WaitReady(ctx, inst.UID()); err != nil {
		t.Fatal(err)
	}
	cl, err := sess.Dial(platform.Addr("delta", "", "alloc-client"), inst.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := cl.Infer(ctx, "bench", 0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 24
	if allocs > budget {
		t.Fatalf("round trip allocates %.1f objects/op, budget %d (seed: 41)", allocs, budget)
	}
}

// TestBatchedRoundTripAllocBudget pins the same round trip through the
// continuous-batching dispatcher (Concurrency 2, MaxBatch 8): serial
// submits exercise the batch-of-one handoff, which must price like the
// single-request path — forming a batch may not add per-request garbage.
// Current cost: 13 allocs (the single path's 11 plus the batch buffers).
func TestBatchedRoundTripAllocBudget(t *testing.T) {
	sess, err := core.NewSession(core.SessionConfig{
		Seed: 1, Clock: simtime.NewScaled(100000, core.DefaultOrigin), FastBoot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	sm := sess.ServiceManager()
	sm.AddPilot(p)
	inst, err := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1},
		Model:           "noop",
		Concurrency:     2,
		MaxBatch:        8,
		ProbeInterval:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sm.WaitReady(ctx, inst.UID()); err != nil {
		t.Fatal(err)
	}
	cl, err := sess.Dial(platform.Addr("delta", "", "alloc-client"), inst.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := cl.Infer(ctx, "bench", 0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 18
	if allocs > budget {
		t.Fatalf("batched round trip allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// TestCampaignAllocBudget pins what one simulated request of an open-loop
// campaign costs in heap objects through the whole stack — driver, request
// runner, resolver, inproc msgq, serving, virtual clock, metrics — on
// bench/rpbench's campaign_steady scenario, campaign set-up included. With
// a goroutine, a Sprintf and five allocating sleeps per request it was 30.2;
// self-waking and recycled sleepers, campaign-lifetime runners and
// worker-owned park channels brought it to about 10.
func TestCampaignAllocBudget(t *testing.T) {
	const requests = 5000
	sc := loadgen.Scenario{
		Name: "campaign_steady", Kind: loadgen.KindSteady, Requests: requests, Rate: 2000,
		Services: 4, Concurrency: 1, Seed: 7, TaskEvery: 1000, KeepSamples: true,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := loadgen.Run(context.Background(), sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != requests {
		t.Fatalf("completed %d of %d requests", res.Completed, requests)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / requests
	const budget = 16
	if allocs > budget {
		t.Fatalf("campaign allocates %.1f objects/request, budget %d", allocs, budget)
	}
	t.Logf("%.1f objects/request", allocs)
}

// tcpEchoHandler echoes the request body back in a reply envelope without
// touching it — the transport-measurement handler. Aliasing the request
// Body into the reply is explicitly allowed by the pooled server's buffer
// ownership rules (the request buffer lives until the reply frame is
// encoded), so the round trip isolates framing, pooling, dispatch and the
// waiter table with zero handler-side JSON.
func tcpEchoHandler(env proto.Envelope) proto.Envelope {
	return proto.Envelope{Kind: proto.KindReply, ID: env.ID, From: env.To, To: env.From, Body: env.Body}
}

func tcpBenchEnvelope(tb testing.TB, payload int) proto.Envelope {
	tb.Helper()
	env, err := proto.NewEnvelope(proto.KindRequest, 0, "cli", "srv", time.Time{},
		proto.InferenceRequest{RequestUID: "r", ClientUID: "cli", Model: "noop",
			Prompt: strings.Repeat("x", payload)})
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// TestTCPRoundTripAllocBudget pins the pooled transport's allocations per
// 64 B round trip. Measured 5 since PR 9: the reply-body copy into the
// caller's envelope plus channel/interface scaffolding — the frames
// themselves ride pooled buffers.
func TestTCPRoundTripAllocBudget(t *testing.T) {
	srv, err := msgq.ListenTCP("127.0.0.1:0", tcpEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := msgq.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env := tcpBenchEnvelope(t, 64)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.Request(ctx, env); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 6
	if allocs > budget {
		t.Errorf("pooled TCP round trip allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// tcpInferClient dials a noop serving.Server bound on loopback TCP in this
// process: one whole remote call per Infer, both sides visible to one
// profile.
func tcpInferClient(tb testing.TB) *service.Client {
	tb.Helper()
	noop, err := llm.Lookup("noop")
	if err != nil {
		tb.Fatal(err)
	}
	clock := simtime.NewReal()
	src := rng.New(7)
	srv, err := serving.New(serving.Config{
		UID: "svc.0", Backend: serving.LLMBackend{M: llm.NewInstance(noop, clock, src.Derive("llm"))},
		Clock: clock, Src: src, Concurrency: 1, ParseOverhead: rng.ConstDuration(0),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Stop)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	tb.Cleanup(func() { _ = net.Close() })
	bind, err := net.BindVia(msgq.TransportTCP, "svc.0", srv.Handler())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = bind.Close() })
	cl, err := service.Dial(net, clock, "client.0", proto.Endpoint{ServiceUID: "svc.0", Model: "noop", Address: bind.Addr()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestTCPInferAllocBudget pins the allocations of one whole remote call:
// service.Client.Infer, request frame, pooled TCP, serving's handler and
// noop backend, reply frame, reply decode and RT split. With both bodies
// through encoding/json it was 37; the hand codec leaves the strings of the
// two decoded bodies and the scaffolding around them, the same at 64 B and
// at 8 KiB.
func TestTCPInferAllocBudget(t *testing.T) {
	cl := tcpInferClient(t)
	ctx := context.Background()
	for _, size := range []int{64, 8 << 10} {
		prompt := strings.Repeat("x", size)
		allocs := testing.AllocsPerRun(300, func() {
			if _, _, err := cl.Infer(ctx, prompt, 0); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 20
		if allocs > budget {
			t.Errorf("%d B remote Infer allocates %.1f objects/op, budget %d", size, allocs, budget)
		}
		t.Logf("%d B: %.1f objects/op", size, allocs)
	}
}

// BenchmarkTCPInfer8KiB is the call of TestTCPInferAllocBudget in a loop:
// the profile PERF.md's encoding/json share of the remote path comes from
// (-cpuprofile).
func BenchmarkTCPInfer8KiB(b *testing.B) {
	cl := tcpInferClient(b)
	ctx := context.Background()
	prompt := strings.Repeat("x", 8<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Infer(ctx, prompt, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerBestFitThroughputMixed1024 measures the augmented
// findBest's per-grant cost on the pool shape it was built for: a
// saturated mixed 1024-node pool (64 fat 128c/16g nodes, 960 thin 16c
// nodes, every node down to one free core) with a permanently blocked
// whole-fat-node head. Before the min-leftover augmentation this query
// visited every fitting leaf (~10 µs/grant at 1024 nodes); with it the
// branch-and-bound prunes on the per-segment min weighted-free score
// and lands back in the strict/backfill per-grant band.
func BenchmarkSchedulerBestFitThroughputMixed1024(b *testing.B) {
	fat := platform.NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}
	thin := platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
	plat := platform.NewMixed("bench", []platform.NodeGroup{
		{Count: 64, Spec: fat}, {Count: 960, Spec: thin},
	})
	nodes := plat.Nodes()
	for _, n := range nodes {
		sp := n.Spec()
		if a := n.TryAlloc(sp.Cores-1, sp.GPUs, sp.MemGB*0.875); a == nil {
			b.Fatal("saturation alloc failed")
		}
	}
	done := make(chan scheduler.Placement, 4096)
	sched := scheduler.New(nodes, func(p scheduler.Placement) { done <- p },
		scheduler.WithPolicy(scheduler.BestFit(scheduler.BackfillConfig{MaxBypass: -1, MaxDelay: -1})))
	defer sched.Close()
	// The head: a whole-fat-node request that fits nowhere while the
	// saturation allocations live.
	if err := sched.Submit(scheduler.Request{UID: "big", Cores: 128, GPUs: 16, Priority: 100}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Submit(scheduler.Request{UID: "t", Cores: 1}); err != nil {
			b.Fatal(err)
		}
		p := <-done
		sched.Release(p.Alloc)
	}
}

// BenchmarkSchedulerBackfillThroughput1024 measures the per-grant cost of
// the capacity-aware backfill scan in its worst sustained regime: a
// saturated 1024-node pilot (one core free per node) whose wait-pool head
// is a permanently blocked full-node request, so every small-task grant
// pays head-fit rejection plus the backfill selection. Comparing against
// rpbench's scheduler.submit_grant_release_ns (strict, unblocked head)
// isolates what backfill adds to the indexed grant path. The best-fit variant used
// to pay an exhaustive least-leftover node scan here (~10 µs/grant); with
// the index's min-leftover augmentation it prices like the others.
func BenchmarkSchedulerBackfillThroughput1024(b *testing.B) {
	unbounded := scheduler.BackfillConfig{MaxBypass: -1, MaxDelay: -1}
	for _, pol := range []struct {
		name string
		mk   func() scheduler.Policy
	}{
		{"backfill", func() scheduler.Policy { return scheduler.Backfill(unbounded) }},
		{"best-fit", func() scheduler.Policy { return scheduler.BestFit(unbounded) }},
	} {
		b.Run(pol.name, func(b *testing.B) {
			plat := platform.New("bench", 1024, platform.NodeSpec{Cores: 64, GPUs: 8, MemGB: 256})
			nodes := plat.Nodes()
			for _, n := range nodes {
				if a := n.TryAlloc(63, 8, 224); a == nil {
					b.Fatal("saturation alloc failed")
				}
			}
			done := make(chan scheduler.Placement, 4096)
			sched := scheduler.New(nodes, func(p scheduler.Placement) { done <- p },
				scheduler.WithPolicy(pol.mk()))
			defer sched.Close()
			// The head: a full-node request no node can satisfy while the
			// saturation allocations live.
			if err := sched.Submit(scheduler.Request{UID: "big", Cores: 64, Priority: 100}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sched.Submit(scheduler.Request{UID: "t", Cores: 1}); err != nil {
					b.Fatal(err)
				}
				p := <-done
				sched.Release(p.Alloc)
			}
		})
	}
}

// BenchmarkSchedulerSnapshotCached1024Mixed measures the generation-
// cached probe: a saturated mixed 1024-node pool, with snapshots
// repeating against an unchanged scheduler — the regime a session router
// is in while it places a whole submit batch. A cache hit skips the lock
// and the shape-table copy entirely (zero allocations), so the delta
// against BenchmarkSchedulerSnapshot1024Mixed is the ROADMAP follow-up's
// saving: probing no longer taxes the scheduler when nothing changed.
func BenchmarkSchedulerSnapshotCached1024Mixed(b *testing.B) {
	fat := platform.NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}
	thin := platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
	plat := platform.NewMixed("bench", []platform.NodeGroup{
		{Count: 64, Spec: fat}, {Count: 960, Spec: thin},
	})
	nodes := plat.Nodes()
	for _, n := range nodes[:len(nodes)-1] {
		sp := n.Spec()
		if a := n.TryAlloc(sp.Cores-1, sp.GPUs, 0); a == nil {
			b.Fatal("saturation alloc failed")
		}
	}
	sched := scheduler.New(nodes, func(p scheduler.Placement) {})
	defer sched.Close()
	sched.Snapshot() // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := sched.Snapshot()
		if len(sn.Shapes) != 2 {
			b.Fatalf("shapes = %d", len(sn.Shapes))
		}
	}
}

// BenchmarkSchedulerSnapshot1024Mixed measures the router-facing load
// probe on a busy mixed 1024-node pool: one Snapshot per op, interleaved
// with a grant/release cycle so the per-shape aggregates are genuinely
// churning (every snapshot is a cache miss). The aggregates are
// maintained incrementally by the capacity index, so a snapshot is one
// lock acquisition plus an O(distinct shapes) copy — it must stay in the
// same per-op band as a grant, or per-task routing would tax the
// scheduler hot path.
func BenchmarkSchedulerSnapshot1024Mixed(b *testing.B) {
	fat := platform.NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}
	thin := platform.NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
	plat := platform.NewMixed("bench", []platform.NodeGroup{
		{Count: 64, Spec: fat}, {Count: 960, Spec: thin},
	})
	nodes := plat.Nodes()
	for _, n := range nodes[:len(nodes)-1] {
		sp := n.Spec()
		if a := n.TryAlloc(sp.Cores-1, sp.GPUs, 0); a == nil {
			b.Fatal("saturation alloc failed")
		}
	}
	done := make(chan scheduler.Placement, 16)
	sched := scheduler.New(nodes, func(p scheduler.Placement) { done <- p })
	defer sched.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Submit(scheduler.Request{UID: "t", Cores: 1}); err != nil {
			b.Fatal(err)
		}
		p := <-done
		sn := sched.Snapshot()
		if len(sn.Shapes) != 2 {
			b.Fatalf("shapes = %d", len(sn.Shapes))
		}
		sched.Release(p.Alloc)
	}
}

package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
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

// inprocRoundTripAllocs returns the heap objects of one serial
// client→service→client round trip (envelope construction, transport,
// queueing, serving, reply decode, RT decomposition) to a service of svc
// in a session on the scaled clock.
func inprocRoundTripAllocs(t *testing.T, svc spec.ServiceDescription) float64 {
	t.Helper()
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
	svc.ProbeInterval = time.Hour
	inst, err := sm.Submit(svc)
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
	return testing.AllocsPerRun(200, func() {
		if _, _, err := cl.Infer(ctx, "bench", 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInferenceRoundTripAllocBudget pins the end-to-end allocation cost of
// one round trip to a noop service, so the hot-path work — inline REQ/REP,
// pooled serving jobs, typed envelope decode — cannot silently regress.
// The seed spent 41 allocs per round trip; inline REQ/REP and pooled jobs
// brought it to 17, lazy envelope encoding to 11 (later 9), and a path
// with no map in the RT split, no escaping decode target and no
// reallocating serving queue to 3: the two payload snapshots and the
// request UID. One pooled exchange holding both request and reply left 1,
// the request UID, and spelling request UIDs a block of 100 at a time left
// 0. The budget is the current cost.
func TestInferenceRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	allocs := inprocRoundTripAllocs(t, spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1},
		Model:           "noop",
	})
	const budget = 0
	if allocs > budget {
		t.Fatalf("round trip allocates %.1f objects/op, budget %d (seed: 41)", allocs, budget)
	}
	t.Logf("%.1f objects/op", allocs)
}

// TestBatchedRoundTripAllocBudget pins the same round trip through the
// continuous-batching dispatcher (Concurrency 2, MaxBatch 8): serial
// submits exercise the batch-of-one handoff, which must price like the
// single-request path — forming a batch may not add per-request garbage.
// It was 13 allocs, then 9, then the single path's 3, then its 1 once the
// batch buffers were the worker's own, and is now its 0.
func TestBatchedRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	allocs := inprocRoundTripAllocs(t, spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1},
		Model:           "noop",
		Concurrency:     2,
		MaxBatch:        8,
	})
	const budget = 0
	if allocs > budget {
		t.Fatalf("batched round trip allocates %.1f objects/op, budget %d", allocs, budget)
	}
	t.Logf("%.1f objects/op", allocs)
}

// TestModelRoundTripAllocBudget pins the same round trip to a vit-base
// service, whose replies carry text: it prices like the noop path (1, now
// 0), because a reply carries the draw of its words and nothing on an
// in-process round trip spells them. Spelling the text where the model
// drew it made it 4 when the noop path was 3.
func TestModelRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	allocs := inprocRoundTripAllocs(t, spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "svc", Cores: 1, GPUs: 1},
		Model:           "vit-base",
	})
	const budget = 0
	if allocs > budget {
		t.Fatalf("vit-base round trip allocates %.1f objects/op, budget %d", allocs, budget)
	}
	t.Logf("%.1f objects/op", allocs)
}

// TestCampaignAllocBudget pins what one simulated request of an open-loop
// campaign costs in heap objects through the whole stack — driver, request
// runner, resolver, inproc msgq, serving, virtual clock, metrics — on
// bench/rpbench's two campaign scenarios, campaign set-up included. With a
// goroutine, a Sprintf and five allocating sleeps per request
// campaign_steady was 30.2; self-waking and recycled sleepers,
// campaign-lifetime runners and worker-owned park channels brought it to
// 10.3, a request path that allocates only what it returns (the two
// payload snapshots, the request UID and the prompt) to 4.3, and one pooled
// exchange in place of the two snapshots to 2.33: the request UID and the
// prompt. Request UIDs spelled a block of 100 at a time and one prompt per
// campaign left 0.35, the campaign's set-up and a UID block per 100
// requests of a client. campaign_batched (vit-base behind a p2c balancer,
// MaxBatch 8) adds the batch's results: 13.85 before that, 5.85 after, 4.7
// once replies carried the draw of their text instead of the text and the
// workers owned their batch items, 2.6–2.7 with the exchange, and 0.57 with
// the UID blocks, the one prompt and results written into the batch items.
func TestCampaignAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const requests = 5000
	for _, row := range []struct {
		sc     loadgen.Scenario
		budget float64
	}{
		{loadgen.Scenario{
			Name: "campaign_steady", Kind: loadgen.KindSteady, Requests: requests, Rate: 2000,
			Services: 4, Concurrency: 1, Seed: 7, TaskEvery: 1000, KeepSamples: true,
		}, 0.5},
		{loadgen.Scenario{
			Name: "campaign_batched", Kind: loadgen.KindHotspot, HotspotWeight: 0.8, Balance: "p2c",
			Requests: requests, Rate: 8000, Services: 4, Model: "vit-base",
			Concurrency: 2, MaxBatch: 8, MaxTokens: 8, QueueCap: 200000, Seed: 7, KeepSamples: true,
		}, 0.75},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := loadgen.Run(context.Background(), row.sc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != requests {
			t.Fatalf("%s: completed %d of %d requests", row.sc.Name, res.Completed, requests)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / requests
		if allocs > row.budget {
			t.Errorf("%s allocates %.2f objects/request, budget %g", row.sc.Name, allocs, row.budget)
		}
		t.Logf("%s: %.2f objects/request", row.sc.Name, allocs)
	}
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
// 64 B round trip of a request NewEnvelope encoded to an echo handler: the frames
// themselves ride pooled buffers. It was 5 when the pooled transport
// landed and measured 3 later: the reply-body copy into the caller's
// envelope and the length prefix of each side's frame read, which escaped
// to the heap. Reading the prefix
// into the frame buffer removed both, and the server decoding the request
// into a pooled exchange added its prompt: 2.
// The encoded request has no exchange, so its reply keeps the body copy.
func TestTCPRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
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
	const budget = 2
	if allocs > budget {
		t.Errorf("pooled TCP round trip allocates %.1f objects/op, budget %d", allocs, budget)
	}
	t.Logf("%.1f objects/op", allocs)
}

// noopServer builds a one-worker noop serving.Server of src on clock with
// no parse overhead, not yet started; its cleanup stops it.
func noopServer(tb testing.TB, clock simtime.Clock, src *rng.Source) *serving.Server {
	tb.Helper()
	noop, err := llm.Lookup("noop")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := serving.New(serving.Config{
		UID: "svc.0", Backend: serving.LLMBackend{M: llm.NewInstance(noop, clock, src.Derive("llm"))},
		Clock: clock, Src: src, Concurrency: 1, ParseOverhead: rng.ConstDuration(0),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Stop)
	return srv
}

// tcpInferClient dials a noop serving.Server bound on loopback TCP in this
// process: one whole remote call per Infer, both sides visible to one
// profile.
func tcpInferClient(tb testing.TB) *service.Client {
	tb.Helper()
	clock := simtime.NewReal()
	src := rng.New(7)
	srv := noopServer(tb, clock, src)
	if _, err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	tb.Cleanup(func() { _ = net.Close() })
	if err := net.SetTransport(msgq.TransportTCP); err != nil {
		tb.Fatal(err)
	}
	bind, err := net.Bind("svc.0", srv.Handler())
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
// through encoding/json it was 37; the hand codec left 19, the strings of
// the two decoded bodies and the scaffolding around them, the same at 64 B
// and at 8 KiB. Decoding both bodies onto the stack, a map-free RT split
// and a request UID built in one allocation left 13, and a request held in
// a pooled exchange instead of a snapshot 12 (13 under the race detector).
// Request UIDs spelled a block at a time and a reply answered into a pooled
// exchange that the TCP server releases once the frame is written left 10
// (11 under the race detector). A reply decoded on the client's read loop
// into its request's own exchange, a request decoded on the server's into a
// pooled one that the answer shares, header strings of both bodies read
// through the read loops' interners and frame length prefixes that no
// longer escape left 2: the server's copies of the request UID and the
// prompt.
func TestTCPInferAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	cl := tcpInferClient(t)
	ctx := context.Background()
	for _, size := range []int{64, 8 << 10} {
		prompt := strings.Repeat("x", size)
		allocs := testing.AllocsPerRun(300, func() {
			if _, _, err := cl.Infer(ctx, prompt, 0); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 2
		if allocs > budget {
			t.Errorf("%d B remote Infer allocates %.1f objects/op, budget %d", size, allocs, budget)
		}
		t.Logf("%d B: %.1f objects/op", size, allocs)
	}
}

// frameEchoPeer listens on loopback and serves one connection the way a
// remote noop service answers it, from buffers it reuses: each request
// frame gets a reply frame that echoes the request's request_uid, so once
// warm the peer allocates nothing and a process-wide count is the client's.
func frameEchoPeer(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	// A noop reply with an empty request_uid, cut after that value: the
	// request's own UID literal goes in front of it.
	const uidKey = `{"request_uid":`
	raw, err := json.Marshal(proto.InferenceReply{ServiceUID: "svc.0", Model: "noop"})
	if err != nil {
		tb.Fatal(err)
	}
	tail := raw[len(uidKey+`""`):]
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		in := proto.NewInterner()
		var buf, body, frame []byte
		for {
			payload, err := proto.ReadFramePayload(br, &buf)
			if err != nil {
				return
			}
			req, err := proto.DecodeFrameInterned(payload, in)
			if err != nil || !bytes.HasPrefix(req.Body, []byte(uidKey+`"`)) {
				return
			}
			uid := req.Body[len(uidKey):] // the quoted UID and what follows it
			uid = uid[:bytes.IndexByte(uid[1:], '"')+2]
			body = append(append(append(body[:0], uidKey...), uid...), tail...)
			rep := proto.Envelope{Kind: proto.KindReply, ID: req.ID, From: req.To, To: req.From, Body: body}
			if frame, err = proto.AppendFrame(frame[:0], &rep); err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	tb.Cleanup(func() {
		_ = ln.Close()
		<-done // the client, closed first, ends the peer's connection
	})
	return ln.Addr().String()
}

// TestTCPClientAllocBudget pins what a remote call costs its caller: a
// service.Client over TCP against frameEchoPeer, the driver side of
// bench/rpbench's tcp_* workloads. The reply is decoded on the read loop
// into the request's own exchange, its request_uid is the request's string
// and its other strings are interned, so what is left is a request-UID
// block, two objects per 100 calls: 0.02 a call. It was 5 (the frame
// length prefix, the reply-body copy and three reply strings). The least
// of three runs is taken, since the count is process-wide.
func TestTCPClientAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	addr := frameEchoPeer(t)
	clock := simtime.NewReal()
	net := msgq.NewNetwork(clock, rng.New(1), nil)
	t.Cleanup(func() { _ = net.Close() })
	cl, err := service.Dial(net, clock, "client.0", proto.Endpoint{ServiceUID: "svc.0", Model: "noop", Address: "tcp://" + addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	seq := 0
	var want []byte // "client.0.req.%06d" of seq, spelled without allocating
	infer := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			reply, _, err := cl.Infer(ctx, "bench", 0)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want[:0], "client.0.req."...)
			for p := 100000; p > 0; p /= 10 { // six digits: seq stays below a million
				want = append(want, byte('0'+seq/p%10))
			}
			if reply.RequestUID != string(want) || reply.Model != "noop" {
				t.Fatalf("call %d got %+v, want request UID %s", seq, reply, want)
			}
		}
	}
	const calls = 1000 // ten whole UID blocks: the warm-up ends on a block's first id
	infer(200)
	least := math.Inf(1)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		infer(calls)
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/calls)
	}
	const budget = 0.02
	if least > budget {
		t.Errorf("remote Infer allocates %.3f objects/call on the client, budget %g", least, budget)
	}
	t.Logf("%.3f objects/call", least)
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

// Integration tests: cross-module scenarios exercising the full stack —
// hybrid local/remote inference, mixed task+service workloads, failure
// injection with client-side rerouting, the Updater stream, and
// determinism of the calibrated models.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/restapi"
	"repro/internal/rng"
	"repro/internal/serving"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
	"repro/internal/usecases"
	"repro/internal/workflow"
)

func newIntSession(t *testing.T, scale float64) *core.Session {
	t.Helper()
	sess, err := core.NewSession(core.SessionConfig{
		Seed:  99,
		Clock: simtime.NewScaled(scale, core.DefaultOrigin),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// TestHybridLocalRemoteInference runs the paper's headline scenario: one
// client consumes a local (Delta, msgq) and a remote (R3, msgq over WAN)
// model instance through identical interfaces, and the remote one costs
// more communication time.
func TestHybridLocalRemoteInference(t *testing.T) {
	sess := newIntSession(t, 1000)
	delta, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "r3", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	localSvc, err := delta.Services().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "local", Cores: 1},
		Model:           "noop", ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	remoteSvc, err := r3.Services().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "remote", Cores: 1},
		Model:           "noop", ProbeInterval: time.Hour, Persistent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := delta.Services().WaitReady(ctx, localSvc.UID()); err != nil {
		t.Fatal(err)
	}
	if err := r3.Services().WaitReady(ctx, remoteSvc.UID()); err != nil {
		t.Fatal(err)
	}

	clientAddr := platform.Addr("delta", delta.Nodes()[0].Name(), "client")
	measure := func(ep proto.Endpoint) time.Duration {
		cl, err := sess.Dial(clientAddr, ep)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		coll := metrics.NewCollector()
		for i := 0; i < 32; i++ {
			_, bd, err := cl.Infer(ctx, "ping", 0)
			if err != nil {
				t.Fatal(err)
			}
			coll.Add("comm", bd.Components["communication"])
		}
		return coll.Stats("comm").Mean
	}
	localComm := measure(localSvc.Endpoint())
	remoteComm := measure(remoteSvc.Endpoint())
	if float64(remoteComm) < 1.2*float64(localComm) {
		t.Fatalf("remote communication %v not clearly above local %v", remoteComm, localComm)
	}
}

// TestFailureInjectionWithPoolRerouting kills one of three services
// mid-stream; the liveness probe withdraws its endpoint and the pool
// keeps serving from the survivors.
func TestFailureInjectionWithPoolRerouting(t *testing.T) {
	sess := newIntSession(t, 100000)
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	sm := sess.ServiceManager()
	sm.AddPilot(p)
	var uids []string
	for i := 0; i < 3; i++ {
		inst, err := sm.Submit(spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("s%d", i), Cores: 1},
			Model:           "noop",
			ProbeInterval:   2 * time.Second, // fast probing at this scale
		})
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, inst.UID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, uids...); err != nil {
		t.Fatal(err)
	}
	pool, err := sess.Pool("delta//client", "noop", loadbal.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for i := 0; i < 6; i++ {
		if _, _, err := pool.Infer(ctx, "x", 0); err != nil {
			t.Fatal(err)
		}
	}
	// kill the first service and wait for the probe to withdraw it
	victim, _ := sm.Get(uids[0])
	victim.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for len(sess.EndpointRegistry().ByModel("noop")) != 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(sess.EndpointRegistry().ByModel("noop")); got != 2 {
		t.Fatalf("endpoints after kill = %d, want 2", got)
	}
	// the pool must keep serving (eviction of the dead connection may cost
	// one failed attempt, so allow retries)
	served := 0
	for i := 0; i < 12 && served < 6; i++ {
		if _, _, err := pool.Infer(ctx, "x", 0); err == nil {
			served++
		}
	}
	if served < 6 {
		t.Fatalf("only %d/6 post-failure requests served", served)
	}
}

// TestHybridWorkflowTasksAndServices runs a workflow mixing plain compute
// tasks with a service stage whose clients are function tasks — the
// paper's AI-out-HPC coupling in one pipeline.
func TestHybridWorkflowTasksAndServices(t *testing.T) {
	sess := newIntSession(t, 100000)
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := workflow.NewRunner(sess, p)
	if err != nil {
		t.Fatal(err)
	}
	var inferences int
	var mu sync.Mutex
	pipe := &workflow.Pipeline{Name: "hybrid", Stages: []*workflow.Stage{
		{
			Name: "hpc-simulate",
			Tasks: []spec.TaskDescription{
				{Name: "md-0", Cores: 32, Duration: rng.ConstDuration(time.Minute)},
				{Name: "md-1", Cores: 32, Duration: rng.ConstDuration(time.Minute)},
			},
		},
		{
			Name:  "ml-analyze",
			After: []string{"hpc-simulate"},
			Services: []spec.ServiceDescription{{
				TaskDescription: spec.TaskDescription{Name: "analyzer", GPUs: 1},
				Model:           "llama-8b", ProbeInterval: time.Hour,
			}},
			Post: func(ctx context.Context, s *core.Session) error {
				eps := s.EndpointRegistry().ByModel("llama-8b")
				if len(eps) != 1 {
					return fmt.Errorf("want 1 endpoint, got %d", len(eps))
				}
				cl, err := s.Dial("delta//analyzer-client", eps[0])
				if err != nil {
					return err
				}
				defer cl.Close()
				for i := 0; i < 3; i++ {
					if _, _, err := cl.Infer(ctx, "analyze trajectory", 16); err != nil {
						return err
					}
					mu.Lock()
					inferences++
					mu.Unlock()
				}
				return nil
			},
		},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := runner.Run(ctx, pipe); err != nil {
		t.Fatal(err)
	}
	if inferences != 3 {
		t.Fatalf("inferences = %d", inferences)
	}
	// services terminated, resources restored
	if got := len(sess.EndpointRegistry().ByModel("llama-8b")); got != 0 {
		t.Fatalf("%d endpoints left after pipeline", got)
	}
}

// TestRESTRemoteThroughSessionDial registers a genuine HTTP REST model
// service as a remote endpoint and consumes it through the same
// Session.Dial used for local services.
func TestRESTRemoteThroughSessionDial(t *testing.T) {
	sess := newIntSession(t, 100000)
	spec_, err := llm.Lookup("llama-8b")
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	srv, err := serving.New(serving.Config{
		UID:     "r3.rest.0001",
		Backend: serving.LLMBackend{M: llm.NewInstance(spec_, sess.Clock(), src.Derive("m"))},
		Clock:   sess.Clock(),
		Src:     src.Derive("s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	g, err := restapi.NewGateway(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sess.RegisterRemote(g.Endpoint())
	eps := sess.EndpointRegistry().ByModel("llama-8b")
	if len(eps) != 1 || eps[0].Protocol != "rest" {
		t.Fatalf("endpoints = %+v", eps)
	}
	cl, err := sess.Dial("delta//rest-client", eps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reply, bd, err := cl.Infer(context.Background(), "remote over real HTTP", 16)
	if err != nil {
		t.Fatal(err)
	}
	if reply.OutputTokens < 1 || bd.Components["inference"] <= 0 {
		t.Fatalf("reply = %+v bd = %+v", reply, bd)
	}
}

// TestUpdaterObservesServiceLifecycle subscribes to the Updater channel
// and watches a service task progress through its extended state model.
func TestUpdaterObservesServiceLifecycle(t *testing.T) {
	sess := newIntSession(t, 100000)
	sub, err := sess.SubscribeUpdates(512, "service")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	// wire service state updates: pilot's service manager machines are
	// internal, so observe via polling the instance + the updates channel
	// for task entities; service transitions flow through the same
	// StateCallback when wired — here we assert the registry-visible
	// lifecycle.
	sm := sess.ServiceManager()
	sm.AddPilot(p)
	inst, err := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "watched", Cores: 1},
		Model:           "noop", ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.WaitReady(ctx, inst.UID()); err != nil {
		t.Fatal(err)
	}
	if inst.State() != states.ServiceActive {
		t.Fatalf("state = %s", inst.State())
	}
	if err := sm.Terminate(inst.UID(), true); err != nil {
		t.Fatal(err)
	}
	if inst.State() != states.ServiceDone {
		t.Fatalf("state after terminate = %s", inst.State())
	}
}

// TestExp1Determinism: the deterministic components of the bootstrap
// measurement (launch base below saturation, model init) replay exactly
// for the same seed.
func TestExp1Determinism(t *testing.T) {
	run := func() experiments.BTRow {
		res, err := experiments.RunBT(context.Background(), experiments.BTConfig{
			Counts: []int{4}, Model: "llama-8b", Scale: 20000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0]
	}
	a, b := run(), run()
	if a.Init.Mean != b.Init.Mean || a.Init.Std != b.Init.Std {
		t.Fatalf("init not deterministic: %v vs %v", a.Init.Mean, b.Init.Mean)
	}
	if a.Launch.Mean != b.Launch.Mean {
		t.Fatalf("launch (below saturation) not deterministic: %v vs %v", a.Launch.Mean, b.Launch.Mean)
	}
}

// TestFullLUCIDCampaign chains all three use-case pipelines in one
// session, sequentially, as the LUCID project would.
func TestFullLUCIDCampaign(t *testing.T) {
	sess := newIntSession(t, 1_000_000)
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := workflow.NewRunner(sess, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	pipes := []*workflow.Pipeline{
		usecases.CellPainting(usecases.CellPaintingConfig{
			DatasetBytes: 4 << 30, Shards: 4, HPOTrials: 4,
		}, sess.RNG()),
		usecases.Signature(usecases.SignatureConfig{Samples: 5}, sess.RNG()),
		usecases.UQ(usecases.UQConfig{Seeds: 2}),
	}
	for _, pipe := range pipes {
		rep, err := runner.Run(ctx, pipe)
		if err != nil {
			t.Fatalf("%s: %v", pipe.Name, err)
		}
		if rep.Duration() <= 0 {
			t.Fatalf("%s: empty report", pipe.Name)
		}
	}
	// after the campaign every pilot resource is free again
	for _, node := range p.Nodes() {
		if node.FreeCores() != node.Spec().Cores || node.FreeGPUs() != node.Spec().GPUs {
			t.Fatalf("node %s leaked resources", node.Name())
		}
	}
}

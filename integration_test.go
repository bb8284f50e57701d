// Integration tests: cross-module scenarios exercising the full stack —
// hybrid local/remote inference, mixed task+service workloads, failure
// injection with probe-driven withdrawal, the Updater stream, and
// determinism of the calibrated models.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
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
// more communication time. The session takes the default clock, virtual
// and auto-advancing, so the comparison does not ride on host jitter
// scaled up into simulated time.
func TestHybridLocalRemoteInference(t *testing.T) {
	sess, err := core.NewSession(core.SessionConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	delta, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "r3", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	localSvc, err := delta.SubmitService(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "local", Cores: 1},
		Model:           "noop", ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	remoteSvc, err := r3.SubmitService(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "remote", Cores: 1},
		Model:           "noop", ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := delta.WaitServices(ctx, localSvc.UID()); err != nil {
		t.Fatal(err)
	}
	if err := r3.WaitServices(ctx, remoteSvc.UID()); err != nil {
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
			coll.Add("comm", bd.Get("communication"))
		}
		return coll.Stats("comm").Mean
	}
	localComm := measure(localSvc.Endpoint())
	remoteComm := measure(remoteSvc.Endpoint())
	if float64(remoteComm) < 1.2*float64(localComm) {
		t.Fatalf("remote communication %v not clearly above local %v", remoteComm, localComm)
	}
}

// TestFailureInjectionProbeWithdrawsKilledService kills one of three
// ready services; the liveness probe withdraws its endpoint, so the
// registry lists the two survivors.
func TestFailureInjectionProbeWithdrawsKilledService(t *testing.T) {
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
	if reply.OutputTokens < 1 || bd.Get("inference") <= 0 {
		t.Fatalf("reply = %+v bd = %+v", reply, bd)
	}
}

// TestServiceLifecycleActiveThenDone: a submitted service is ACTIVE once
// WaitReady returns and DONE once a Terminate returns.
func TestServiceLifecycleActiveThenDone(t *testing.T) {
	sess := newIntSession(t, 100000)
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
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
	if inst.Instance().State() != states.ServiceActive {
		t.Fatalf("state = %s", inst.Instance().State())
	}
	if err := sm.Terminate(inst.UID(), true); err != nil {
		t.Fatal(err)
	}
	if inst.Instance().State() != states.ServiceDone {
		t.Fatalf("state after terminate = %s", inst.Instance().State())
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

	src := rng.New(99)
	pipes := []*workflow.Pipeline{
		usecases.CellPainting(usecases.CellPaintingConfig{
			DatasetBytes: 4 << 30, Shards: 4, HPOTrials: 4,
		}, src),
		usecases.Signature(usecases.SignatureConfig{Samples: 5}, src),
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

package core_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// ExampleNewSession is the minimal end-to-end use of the runtime: one
// session, one pilot, one llama-8b service task, one inference round trip
// through the published endpoint, with the paper's BT and RT
// decompositions printed. The session takes the default clock, virtual
// and auto-advancing, so the figures are the same on every run.
func ExampleNewSession() {
	// 1. Session: clock, topology, network, managers.
	sess, err := core.NewSession(core.SessionConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	// The default clock is virtual: the goroutine that drives the session
	// registers with it, so its sleeps and waits park on the clock's books.
	clock := sess.Clock().(*simtime.Virtual)
	clock.AddRunner()
	defer clock.DoneRunner()

	// 2. Pilot: acquire Delta resources (Table II: 256 cores / 16 GPUs).
	p, err := sess.PilotManager().Submit(spec.PilotDescription{
		Platform: "delta", Cores: 256, GPUs: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pilot %s ACTIVE on %d nodes\n", p.UID(), len(p.Nodes()))

	// 3. Service task: one llama-8b instance on one GPU, via the unified
	//    submission API (ServiceDescription extends TaskDescription).
	sm := sess.ServiceManager()
	sm.AddPilot(p)
	inst, err := sm.Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "llm-service", GPUs: 1},
		Model:           "llama-8b",
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sm.WaitReady(ctx, inst.UID()); err != nil {
		log.Fatal(err)
	}
	bt := inst.Bootstrap()
	fmt.Printf("service %s ACTIVE at %s\n", inst.UID(), inst.Endpoint().Address)
	fmt.Printf("  bootstrap: launch=%.2fs init=%.2fs publish=%.2fs (Fig. 3 components)\n",
		bt.Get("launch").Seconds(), bt.Get("init").Seconds(), bt.Get("publish").Seconds())

	// 4. Inference through the service endpoint.
	client, err := sess.Dial(platform.Addr("delta", "", "client.0001"), inst.Endpoint())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	reply, rt, err := client.Infer(ctx, "summarize the effect of low-dose radiation on cell morphology", 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inference: %d prompt + %d output tokens\n", reply.PromptTokens, reply.OutputTokens)
	fmt.Printf("  response time: communication=%.4fs service=%.4fs inference=%.3fs (Fig. 6 components)\n",
		rt.Get("communication").Seconds(), rt.Get("service").Seconds(), rt.Get("inference").Seconds())
	fmt.Printf("  reply: %.60s...\n", reply.Words())

	// 5. Graceful teardown.
	if err := sm.Terminate(inst.UID(), true); err != nil {
		log.Fatal(err)
	}
	// Output:
	// pilot pilot.delta.0001 ACTIVE on 4 nodes
	// service session.862130a9.svc.0001 ACTIVE at delta/delta-node0000/session.862130a9.svc.0001
	//   bootstrap: launch=1.53s init=21.62s publish=0.40s (Fig. 3 components)
	// inference: 12 prompt + 39 output tokens
	//   response time: communication=0.0001s service=0.0000s inference=0.952s (Fig. 6 components)
	//   reply: [llama-8b] expression gene task cluster analysis response do...
}

// Load balancing (paper §IV-E future work): the prototype uses
// round-robin ("only a rudimentary load balancing"); the future-work
// strategy reroutes to "less used service instances". This example runs
// both against a fleet of four llama services under a bursty client and
// compares the queueing each strategy induces (`rpexp -exp hotspot` is
// the seeded, exact-count version).
//
// The pilot's placement policy is configurable with -sched
// (strict|backfill|best-fit), threading the scheduler's Policy seam
// end-to-end: with -sched backfill, small client tasks keep flowing even
// while a large request blocks the head of the pilot's wait pool. The
// hosting platform is configurable with -platform: "delta" (the paper's
// homogeneous testbed) or "hetero", the mixed-shape campus, where
// -sched best-fit keeps the fat GPU nodes whole. The session's
// task→pilot router is configurable with -router
// (round-robin|least-loaded|capacity-fit) — one pilot here, so it only
// changes which strategy the TaskManager reports, but it mirrors the
// rpexp -router seam end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
)

func main() {
	sched := flag.String("sched", scheduler.PolicyStrict,
		"pilot scheduling policy: strict|backfill[:k=N,t=D]|best-fit[:k=N,t=D]")
	plat := flag.String("platform", "delta",
		"hosting platform: delta (homogeneous) or hetero (mixed node shapes)")
	rt := flag.String("router", router.NameRoundRobin,
		"session task router: round-robin|least-loaded|capacity-fit")
	flag.Parse()
	if err := run(*sched, *plat, *rt); err != nil {
		fmt.Fprintf(os.Stderr, "loadbalance: %v\n", err)
		os.Exit(1)
	}
}

func run(sched, plat, rt string) error {
	sess, err := core.NewSession(core.SessionConfig{
		Seed:        5,
		Clock:       simtime.NewScaled(2000, core.DefaultOrigin),
		FastBoot:    true,
		SchedPolicy: sched,
		Router:      rt,
	})
	if err != nil {
		return err
	}
	defer sess.Close()

	// On a homogeneous platform the fleet needs 256 cores / 16 GPUs; on a
	// mixed platform take the whole machine instead — a capacity request
	// would be satisfied by the (index-leading) fat partition alone,
	// leaving the pilot homogeneous and nothing for best-fit to win.
	desc := spec.PilotDescription{Platform: plat, Cores: 256, GPUs: 16}
	if hosting := sess.Topology().Platform(plat); hosting != nil && len(hosting.Shapes()) > 1 {
		desc = spec.PilotDescription{Platform: plat, Nodes: len(hosting.Nodes())}
	}
	p, err := sess.PilotManager().Submit(desc)
	if err != nil {
		return err
	}
	if shapes := p.Shapes(); len(shapes) > 1 {
		fmt.Printf("pilot spans mixed node shapes: %s\n", platform.FormatShapes(shapes))
	}
	sm := sess.ServiceManager()
	sm.AddPilot(p)

	const fleet = 4
	handles := make([]*core.Service, 0, fleet)
	uids := make([]string, 0, fleet)
	for i := 0; i < fleet; i++ {
		inst, err := sm.Submit(spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("llm-%d", i), GPUs: 1},
			Model:           "llama-8b",
			ProbeInterval:   time.Hour,
		})
		if err != nil {
			return err
		}
		handles = append(handles, inst)
		uids = append(uids, inst.UID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := sm.WaitReady(ctx, uids...); err != nil {
		return err
	}
	fmt.Printf("fleet of %d llama-8b services ready (scheduling policy: %s, task router: %s)\n",
		fleet, p.Scheduler().Policy().Name(), sess.TaskManager().RouterName())

	strategies := []struct {
		name   string
		picker loadbal.Picker
	}{
		{"round-robin (paper's rudimentary strategy)", loadbal.NewRoundRobin()},
		{"least-loaded (future-work rerouting)", loadbal.NewLeastLoaded()},
	}
	reg := sess.EndpointRegistry()
	for _, s := range strategies {
		pool, err := sess.Pool(platform.Addr(plat, "", "burst-client"), "llama-8b", s.picker)
		if err != nil {
			return err
		}
		coll := metrics.NewCollector()
		var wg sync.WaitGroup
		// bursty load: 16 staggered requests with skewed sizes, so naive
		// round-robin stacks short requests behind long-tail ones while a
		// load-aware picker routes around the busy instances, steering by
		// the load report published at each arrival
		for i := 0; i < 16; i++ {
			wg.Add(1)
			sess.Clock().Sleep(400 * time.Millisecond) // arrival spacing
			now := sess.Clock().Now()
			for _, h := range handles {
				reg.ReportLoad(h.UID(), service.Load{Queued: h.Queued(), InFlight: h.InFlight(), At: now})
			}
			go func(i int) {
				defer wg.Done()
				tokens := 32
				if i%4 == 0 {
					tokens = 1024 // long-tail requests
				}
				reply, rt, err := pool.Infer(ctx, fmt.Sprintf("burst %d", i), tokens)
				if err != nil {
					fmt.Fprintf(os.Stderr, "  request %d: %v\n", i, err)
					return
				}
				_ = reply
				coll.Add("queue", rt.Components["service"])
				coll.Add("total", rt.Total())
			}(i)
		}
		wg.Wait()
		pool.Close()
		fmt.Printf("%s:\n  queueing %s\n  total RT %s\n",
			s.name, coll.Stats("queue"), coll.Stats("total"))
	}
	return nil
}

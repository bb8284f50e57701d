package core

// Tests for the session autoscaler: demand-driven replica scale-up under
// a saturating open-loop burst, hysteresis-gated scale-down once idle,
// and exact request accounting through the balancing client — all on an
// auto-advancing virtual clock, so every interleaving replays exactly.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadbal"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// TestAutoscalerScalesUpAndBackDown drives 6000 arrivals at 1000 req/s
// into a vit-base service whose single worker sustains ~285 req/s. The
// backlog crosses the scale-up threshold on the first evaluation, the
// autoscaler grows the fleet to its MaxReplicas bound of three (exactly:
// the in-flight bootstrap counts against the bound, so the peak cannot
// overshoot), every request completes, and once the queue drains the
// scaleStabilize hysteresis retires the replicas back down to one.
func TestAutoscalerScalesUpAndBackDown(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	s, err := NewSession(SessionConfig{Seed: 42, Clock: clock, FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	s.ServiceManager().AddPilot(p)

	h, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "scaled", GPUs: 1},
		Model:           "vit-base",
		Concurrency:     1,
		QueueCap:        20000,
		MaxReplicas:     3,
		ProbeInterval:   10000 * time.Hour,
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the clock until the arrival goroutine below is on it: WaitReady
	// parks its caller on the clock's books, and without the hold the
	// autoscaler's ticks would let time run on before that goroutine starts.
	ctx := context.Background()
	clock.AddRunner()
	err = s.ServiceManager().WaitReady(ctx, h.UID())
	if err != nil {
		clock.DoneRunner()
		t.Fatal(err)
	}
	bal, err := s.DialService(platform.Addr("delta", "", "as-client"), h.UID(), nil)
	if err != nil {
		clock.DoneRunner()
		t.Fatal(err)
	}
	defer bal.Close()

	const requests = 6000
	var completed, failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	clock.Go(func() {
		defer wg.Done()
		for i := 0; i < requests; i++ {
			clock.Sleep(time.Millisecond)
			idx := i
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				if _, _, err := bal.Infer(ctx, fmt.Sprintf("req-%04d", idx), 8); err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
			})
		}
	})
	clock.DoneRunner()
	wg.Wait()

	if completed.Load() != requests || failed.Load() != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", completed.Load(), failed.Load(), requests)
	}
	if pk := h.PeakReplicas(); pk != 3 {
		t.Fatalf("peak replicas = %d, want exactly MaxReplicas (3)", pk)
	}
	// Idle now: the hysteresis retires both replicas (scaleStabilize quiet
	// evaluations each, two-phase drain) back down to the base instance.
	deadline := time.Now().Add(30 * time.Second)
	for replicas(h) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("replicas = %d, want 1 after idle scale-down", replicas(h))
		}
		time.Sleep(time.Millisecond)
	}
	if pk := h.PeakReplicas(); pk != 3 {
		t.Fatalf("peak replicas = %d after scale-down, want the high-water 3", pk)
	}
}

// TestAutoscalerStaysAtOneBelowThreshold: a trickle an order of magnitude
// under one worker's capacity never crosses the scale-up threshold — the
// fleet stays at exactly one instance and no replica is ever spawned.
func TestAutoscalerStaysAtOneBelowThreshold(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	s, err := NewSession(SessionConfig{Seed: 42, Clock: clock, FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	s.ServiceManager().AddPilot(p)

	h, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "idle", GPUs: 1},
		Model:           "vit-base",
		Concurrency:     1,
		MaxReplicas:     3,
		ProbeInterval:   10000 * time.Hour,
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the clock until the arrival goroutine below is on it: WaitReady
	// parks its caller on the clock's books, and without the hold the
	// autoscaler's ticks would let time run on before that goroutine starts.
	ctx := context.Background()
	clock.AddRunner()
	err = s.ServiceManager().WaitReady(ctx, h.UID())
	if err != nil {
		clock.DoneRunner()
		t.Fatal(err)
	}
	bal, err := s.DialService(platform.Addr("delta", "", "idle-client"), h.UID(), nil)
	if err != nil {
		clock.DoneRunner()
		t.Fatal(err)
	}
	defer bal.Close()

	const requests = 200
	var completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	clock.Go(func() {
		defer wg.Done()
		for i := 0; i < requests; i++ {
			clock.Sleep(50 * time.Millisecond) // 20 req/s against ~285 req/s capacity
			idx := i
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				if _, _, err := bal.Infer(ctx, fmt.Sprintf("req-%04d", idx), 8); err == nil {
					completed.Add(1)
				}
			})
		}
	})
	clock.DoneRunner()
	wg.Wait()

	if completed.Load() != requests {
		t.Fatalf("completed = %d, want %d", completed.Load(), requests)
	}
	if pk := h.PeakReplicas(); pk != 1 {
		t.Fatalf("peak replicas = %d, want 1 (threshold never crossed)", pk)
	}
	if n := replicas(h); n != 1 {
		t.Fatalf("replicas = %d, want 1", n)
	}
}

// viewPicker is a loadbal.Picker that keeps the balancing view it is handed
// and picks the base.
type viewPicker struct{ v loadbal.LoadView }

func (p *viewPicker) PickIndex(v loadbal.LoadView, _ int64) int { p.v = v; return 0 }

// TestAutoscaledReplicaLoadReadsLive: once the autoscaler admits a replica
// to the balancing group, a pick reads the replica's server queue as it
// stands, not a report from the last tick. Eight long llama-8b requests
// hold the base's queue over the scale-up threshold until the replica
// joins; two more sent straight to the replica after the admitting tick
// show in the group view 100 ms later, stamped as never stale, with no
// tick in between.
func TestAutoscaledReplicaLoadReadsLive(t *testing.T) {
	clock := simtime.NewVirtualAuto(DefaultOrigin)
	s, err := NewSession(SessionConfig{Seed: 42, Clock: clock, FastBoot: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p, err := s.PilotManager().Submit(deltaPilotDesc())
	if err != nil {
		t.Fatal(err)
	}
	s.ServiceManager().AddPilot(p)
	h, err := s.ServiceManager().Submit(spec.ServiceDescription{
		TaskDescription: spec.TaskDescription{Name: "live", GPUs: 1},
		Model:           "llama-8b",
		Concurrency:     1,
		MaxReplicas:     2,
		ProbeInterval:   10000 * time.Hour,
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the clock until the goroutine below is on it: WaitReady parks
	// its caller on the clock's books, and without the hold the
	// autoscaler's ticks would let time run on before that goroutine starts.
	ctx := context.Background()
	clock.AddRunner()
	err = s.ServiceManager().WaitReady(ctx, h.UID())
	if err != nil {
		clock.DoneRunner()
		t.Fatal(err)
	}
	picker := &viewPicker{}
	bal, err := s.DialService(platform.Addr("delta", "", "live-client"), h.UID(), picker)
	if err != nil {
		clock.DoneRunner()
		t.Fatal(err)
	}
	defer bal.Close()

	var wg sync.WaitGroup
	send := func(ep proto.Endpoint, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				cl, err := s.Dial(platform.Addr("delta", "", "live-client"), ep)
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				if _, _, err := cl.Infer(ctx, "p", 512); err != nil {
					t.Error(err)
				}
			})
		}
	}
	wg.Add(1)
	clock.Go(func() {
		defer wg.Done()
		send(h.Endpoint(), 8)
		for replicas(h) < 2 {
			if clock.Now().Sub(DefaultOrigin) > 2*time.Minute {
				t.Error("no replica admitted within two minutes")
				return
			}
			clock.Sleep(100 * time.Millisecond)
		}
		admitted := clock.Now()
		h.mu.Lock()
		var rep *replicaRef
		for _, r := range h.reps {
			if r.member {
				rep = r
			}
		}
		base := h.inst
		h.mu.Unlock()
		send(rep.inst.Endpoint(), 2)
		clock.Sleep(100 * time.Millisecond)

		bal.Pick()
		if picker.v == nil || picker.v.Len() != 2 {
			t.Errorf("group view %v, want the base and one replica", picker.v)
			return
		}
		for i, inst := range []*pilot.Service{base, rep.inst} {
			depth, at := picker.v.Load(i)
			if want := inst.Queued() + inst.InFlight(); depth != want || at != math.MaxInt64 {
				t.Errorf("%s: view reads depth %d stamp %d, want its server's %d, never stale",
					inst.UID(), depth, at, want)
			}
		}
		if depth, _ := picker.v.Load(1); depth != 2 {
			t.Errorf("replica depth %d, want the 2 requests sent %v after its admission", depth, clock.Now().Sub(admitted))
		}
	})
	clock.DoneRunner()
	wg.Wait()
}

// replicas returns h's serving-replica count: the base instance plus every
// autoscaled replica admitted to the balancing group.
func replicas(h *Service) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 1
	for _, r := range h.reps {
		if r.member && !r.draining {
			n++
		}
	}
	return n
}

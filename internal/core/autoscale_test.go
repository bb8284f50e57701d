package core

// Tests for the session autoscaler: demand-driven replica scale-up under
// a saturating open-loop burst, hysteresis-gated scale-down once idle,
// and exact request accounting through the balancing client — all on an
// auto-advancing virtual clock, so every interleaving replays exactly.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// TestAutoscalerScalesUpAndBackDown drives 6000 arrivals at 1000 req/s
// into a vit-base service whose single worker sustains ~285 req/s. The
// backlog crosses the scale-up threshold on the first evaluation, the
// autoscaler grows the fleet to its MaxReplicas bound of three (exactly:
// the in-flight bootstrap counts against the bound, so the peak cannot
// overshoot), every request completes, and once the queue drains the
// ScaleStabilize hysteresis retires the replicas back down to one.
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
		MinReplicas:     1,
		MaxReplicas:     3,
		ScaleInterval:   time.Second,
		ScaleUpQueue:    2,
		ScaleDownQueue:  1,
		ScaleStabilize:  2,
		ProbeInterval:   10000 * time.Hour,
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.ServiceManager().WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	bal, err := s.DialService(platform.Addr("delta", "", "as-client"), h.UID(), nil)
	if err != nil {
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
	wg.Wait()

	if completed.Load() != requests || failed.Load() != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", completed.Load(), failed.Load(), requests)
	}
	if pk := h.PeakReplicas(); pk != 3 {
		t.Fatalf("peak replicas = %d, want exactly MaxReplicas (3)", pk)
	}
	// Idle now: the hysteresis retires both replicas (two quiet
	// evaluations each, two-phase drain) back down to the base instance.
	deadline := time.Now().Add(30 * time.Second)
	for h.Replicas() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("replicas = %d, want 1 after idle scale-down", h.Replicas())
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
		MinReplicas:     1,
		MaxReplicas:     3,
		ScaleInterval:   time.Second,
		ScaleUpQueue:    2,
		ScaleDownQueue:  1,
		ScaleStabilize:  2,
		ProbeInterval:   10000 * time.Hour,
		StartTimeout:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.ServiceManager().WaitReady(ctx, h.UID()); err != nil {
		t.Fatal(err)
	}
	bal, err := s.DialService(platform.Addr("delta", "", "idle-client"), h.UID(), nil)
	if err != nil {
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
	wg.Wait()

	if completed.Load() != requests {
		t.Fatalf("completed = %d, want %d", completed.Load(), requests)
	}
	if pk := h.PeakReplicas(); pk != 1 {
		t.Fatalf("peak replicas = %d, want 1 (threshold never crossed)", pk)
	}
	if n := h.Replicas(); n != 1 {
		t.Fatalf("replicas = %d, want 1", n)
	}
}

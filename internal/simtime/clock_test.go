package simtime

import (
	"context"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now() = %v far behind wall clock", now)
	}
	start := time.Now()
	c.Sleep(5 * time.Millisecond)
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("Real.Sleep returned after %v, want >= ~5ms", el)
	}
}

func TestRealTimerAndTicker(t *testing.T) {
	c := NewReal()
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker did not tick")
	}
}

func TestSleepCtxCancelled(t *testing.T) {
	v := NewVirtual(origin)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- SleepCtx(ctx, v, time.Hour) }()
	for v.PendingSleepers() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("SleepCtx = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SleepCtx did not observe cancellation")
	}
}

func TestSleepCtxNonPositive(t *testing.T) {
	v := NewVirtual(origin)
	if err := SleepCtx(context.Background(), v, 0); err != nil {
		t.Fatalf("SleepCtx(0) = %v, want nil", err)
	}
}

func TestScaledClockCompression(t *testing.T) {
	// 1000x: sleeping 1 simulated second should take ~1ms real.
	c := NewScaled(1000, origin)
	start := time.Now()
	c.Sleep(time.Second)
	el := time.Since(start)
	if el < 500*time.Microsecond || el > 500*time.Millisecond {
		t.Fatalf("scaled sleep of 1s took %v real, want ~1ms", el)
	}
}

func TestScaledClockNowAdvances(t *testing.T) {
	c := NewScaled(1000, origin)
	time.Sleep(2 * time.Millisecond) // ~2 simulated seconds
	el := c.Now().Sub(origin)
	if el < 500*time.Millisecond {
		t.Fatalf("scaled Now advanced only %v sim after 2ms real", el)
	}
}

func TestScaledClockTimerTicker(t *testing.T) {
	c := NewScaled(1000, origin)
	tm := c.NewTimer(time.Second) // ~1ms real
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("scaled timer did not fire")
	}
	tk := c.NewTicker(time.Second)
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("scaled ticker did not tick")
	}
	tk.Stop()
	tk.Stop() // idempotent
}

func TestScaledTimerStop(t *testing.T) {
	c := NewScaled(1, origin)
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop on pending scaled timer = false")
	}
}

func TestScaledPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScaled(0) did not panic")
		}
	}()
	NewScaled(0, origin)
}

func TestScaledCompressRoundsUp(t *testing.T) {
	c := NewScaled(1e12, origin)
	if w := c.compress(time.Nanosecond); w != 1 {
		t.Fatalf("compress rounded to %v, want 1ns floor", w)
	}
	if w := c.compress(-time.Second); w != 0 {
		t.Fatalf("compress(-1s) = %v, want 0", w)
	}
}

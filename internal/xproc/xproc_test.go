package xproc

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets this test binary double as the pilot-agent executable:
// Spawn re-executes os.Executable() with the agent config in its
// environment, and MaybeRunAgent turns that child into an agent.
func TestMain(m *testing.M) {
	MaybeRunAgent()
	os.Exit(m.Run())
}

// spawn starts a one-node agent on delta and kills it when the test ends.
func spawn(t *testing.T, uid string) *Proc {
	t.Helper()
	p, err := Spawn(context.Background(), AgentConfig{UID: uid, Platform: "delta", Nodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Kill() })
	return p
}

// exited waits up to 10 s for the agent process to end and reports
// whether it did.
func exited(p *Proc) bool {
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

func TestSpawnPingShutdown(t *testing.T) {
	p := spawn(t, "agent.ping")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Ping(ctx); err != nil {
		t.Fatalf("Ping = %v", err)
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if st := p.cmd.ProcessState; st == nil || !st.Exited() || st.ExitCode() != 0 {
		t.Fatalf("agent after Shutdown: %v, want exit status 0", st)
	}
}

func TestSpawnUnknownPlatformExitsBeforeReady(t *testing.T) {
	start := time.Now()
	p, err := Spawn(context.Background(), AgentConfig{UID: "agent.nowhere", Platform: "nowhere"})
	if err == nil {
		_ = p.Kill()
		t.Fatal("Spawn on an unknown platform succeeded")
	}
	if !strings.Contains(err.Error(), "exited before ready") {
		t.Fatalf("Spawn = %v, want \"exited before ready\"", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Spawn failed after %v, want well inside the 30 s cap", el)
	}
}

// TestStdinEOFEndsAgent is the driver-died path: the agent holds the
// driver's end of its stdin and exits when it closes.
func TestStdinEOFEndsAgent(t *testing.T) {
	p := spawn(t, "agent.orphan")
	_ = p.stdin.Close()
	if !exited(p) {
		t.Fatal("agent still running 10 s after its stdin closed")
	}
	// Already reaped: release the control client and leave the cleanup's
	// Kill nothing to do.
	_ = p.cli.Close()
	p.killed.Store(true)
}

func TestCallAfterKillFails(t *testing.T) {
	p := spawn(t, "agent.killed")
	if err := p.Kill(); err != nil {
		t.Fatalf("Kill = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Ping(ctx); err == nil || ctx.Err() != nil {
		t.Fatalf("Ping after Kill = %v (ctx %v), want an immediate error", err, ctx.Err())
	}
}

// TestShutdownAfterKill: a driver that killed its agent may still shut it
// down on the way out; there is nothing left to stop, so that is not an
// error.
func TestShutdownAfterKill(t *testing.T) {
	p := spawn(t, "agent.reaped")
	if err := p.Kill(); err != nil {
		t.Fatalf("Kill = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after Kill = %v, want nil", err)
	}
}

// TestRunAgentBadScale: a scale that is not a finite positive number is
// refused before the agent builds anything; zero selects the default and
// is not among these.
func TestRunAgentBadScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(scale), func(t *testing.T) {
			err := RunAgent(AgentConfig{UID: "agent.scale", Platform: "delta", Scale: scale}, strings.NewReader(""), io.Discard)
			if err == nil || !strings.Contains(err.Error(), "scale") {
				t.Fatalf("RunAgent(scale %v) = %v, want a scale error", scale, err)
			}
		})
	}
}

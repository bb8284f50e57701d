package xproc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/scheduler"
	"repro/internal/spec"
)

// Proc is the driver-side handle of one pilot-agent process. It implements
// router.Target (UID/Shapes/Snapshot), so the session-level routers route
// across OS processes exactly as they route across in-proc pilots.
type Proc struct {
	cfg    AgentConfig
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	cli    *msgq.TCPClient
	shapes []platform.NodeGroup

	nextID atomic.Uint64
	killed atomic.Bool
}

// Spawn re-executes the current binary as a pilot agent and waits for its
// ready handshake. The child inherits stderr; its stdin is a pipe held
// open for the driver's lifetime (EOF is the agent's die signal).
func Spawn(ctx context.Context, cfg AgentConfig) (*Proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("xproc: spawn: %w", err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("xproc: spawn: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envAgentConfig+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("xproc: spawn %s: %w", cfg.UID, err)
	}
	p := &Proc{cfg: cfg, cmd: cmd, stdin: stdin}

	// Scan stdout for the ready line, bounded by ctx and a hard cap.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), readyPrefix); ok {
				addrCh <- addr
				break
			}
		}
		close(addrCh)
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained
	}()
	deadline := 30 * time.Second
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok || a == "" {
			_ = p.Kill()
			return nil, fmt.Errorf("xproc: agent %s exited before ready", cfg.UID)
		}
		addr = a
	case <-time.After(deadline):
		_ = p.Kill()
		return nil, fmt.Errorf("xproc: agent %s not ready after %s", cfg.UID, deadline)
	case <-ctx.Done():
		_ = p.Kill()
		return nil, ctx.Err()
	}

	cli, err := msgq.DialTCP(addr)
	if err != nil {
		_ = p.Kill()
		return nil, err
	}
	p.cli = cli
	// Cache the pilot's shapes once: routers consult Shapes() per
	// submission and must not pay (or fail) an RPC each time.
	var shapes []platform.NodeGroup
	if err := p.call(ctx, "shapes", nil, &shapes); err != nil {
		_ = p.Kill()
		return nil, fmt.Errorf("xproc: agent %s shapes: %w", cfg.UID, err)
	}
	p.shapes = shapes
	return p, nil
}

// call performs one control RPC.
func (p *Proc) call(ctx context.Context, method string, args any, out any) error {
	body := callBody{Method: method}
	if args != nil {
		raw, err := json.Marshal(args)
		if err != nil {
			return err
		}
		body.Args = raw
	}
	env, err := proto.NewEnvelope(kindCall, p.nextID.Add(1), "driver", p.cfg.UID, time.Now(), body)
	if err != nil {
		return err
	}
	reply, err := p.cli.Request(ctx, env)
	if err != nil {
		return err
	}
	var rb replyBody
	if err := reply.Decode(kindResult, &rb); err != nil {
		return err
	}
	if rb.Err != "" {
		return errors.New(rb.Err)
	}
	if out != nil && rb.Result != nil {
		return json.Unmarshal(rb.Result, out)
	}
	return nil
}

// UID implements router.Target.
func (p *Proc) UID() string { return p.cfg.UID }

// Shapes implements router.Target (cached at spawn).
func (p *Proc) Shapes() []platform.NodeGroup { return p.shapes }

// Snapshot implements router.Target via RPC; a dead agent yields the zero
// snapshot (no free capacity) so load-aware routers steer away from it.
func (p *Proc) Snapshot() scheduler.Snapshot {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var snap scheduler.Snapshot
	if err := p.call(ctx, "snapshot", nil, &snap); err != nil {
		return scheduler.Snapshot{}
	}
	return snap
}

// SubmitTask submits a task description to the agent's pilot and returns
// the assigned task UID.
func (p *Proc) SubmitTask(ctx context.Context, d spec.TaskDescription) (string, error) {
	var res submitResult
	if err := p.call(ctx, "submit", submitArgs{Desc: d}, &res); err != nil {
		return "", err
	}
	return res.UID, nil
}

// WaitTasks blocks until every listed task settles on the agent and
// returns their final states (one blocking RPC for the whole set).
func (p *Proc) WaitTasks(ctx context.Context, uids []string) ([]TaskStatus, error) {
	var res waitReply
	if err := p.call(ctx, "wait", waitArgs{UIDs: uids}, &res); err != nil {
		return nil, err
	}
	return res.Tasks, nil
}

// SubmitService submits a service description to the agent's pilot.
func (p *Proc) SubmitService(ctx context.Context, d spec.ServiceDescription) (string, error) {
	var res submitResult
	if err := p.call(ctx, "svc_submit", svcSubmitArgs{Desc: d}, &res); err != nil {
		return "", err
	}
	return res.UID, nil
}

// AwaitService blocks until the service is ACTIVE and returns its
// published endpoint — a dialable "tcp://host:port" address, since agent
// pilots run the TCP transport.
func (p *Proc) AwaitService(ctx context.Context, uid string) (proto.Endpoint, error) {
	var res svcAwaitReply
	if err := p.call(ctx, "svc_await", svcAwaitArgs{UID: uid}, &res); err != nil {
		return proto.Endpoint{}, err
	}
	return res.Endpoint, nil
}

// Ping round-trips the control channel.
func (p *Proc) Ping(ctx context.Context) error { return p.call(ctx, "ping", nil, nil) }

// Shutdown asks the agent to exit cleanly and waits for the process,
// killing it if it lingers.
func (p *Proc) Shutdown(ctx context.Context) error {
	if p.killed.Load() {
		return nil
	}
	callCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err := p.call(callCtx, "shutdown", nil, nil)
	cancel()
	_ = p.cli.Close()
	_ = p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.killed.Store(true)
	return err
}

// Kill terminates the agent process immediately (SIGKILL) — the
// cross-process analogue of killing a pilot's host mid-run.
func (p *Proc) Kill() error {
	if p.killed.Swap(true) {
		return nil
	}
	if p.cli != nil {
		_ = p.cli.Close()
	}
	_ = p.stdin.Close()
	err := p.cmd.Process.Kill()
	_ = p.cmd.Wait()
	return err
}

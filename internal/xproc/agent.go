package xproc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msgq"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// MaybeRunAgent turns the current process into a pilot agent when
// envAgentConfig is set, and never returns in that case. Binaries that can
// host agents (cmd/rppilot, cmd/rpexp, test binaries that spawn agents)
// must call it at the very top of main / TestMain, before flag parsing.
func MaybeRunAgent() {
	raw := os.Getenv(envAgentConfig)
	if raw == "" {
		return
	}
	var cfg AgentConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rppilot agent: bad %s: %v\n", envAgentConfig, err)
		os.Exit(2)
	}
	if err := RunAgent(cfg, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rppilot agent %s: %v\n", cfg.UID, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunAgent launches one pilot on a TCP-transport network, serves control
// RPCs, and blocks until a shutdown RPC arrives or stdin reaches EOF (the
// driver died). The ready handshake line goes to stdout.
func RunAgent(cfg AgentConfig, stdin io.Reader, stdout io.Writer) error {
	if cfg.UID == "" {
		return fmt.Errorf("xproc: agent without UID")
	}
	switch {
	case cfg.Scale == 0:
		cfg.Scale = 2000
	case !(cfg.Scale > 0) || math.IsInf(cfg.Scale, 1):
		return fmt.Errorf("xproc: agent scale %v: want a finite positive number (0 selects 2000)", cfg.Scale)
	}
	plat := platform.DefaultTopology().Platform(cfg.Platform)
	if plat == nil {
		return fmt.Errorf("xproc: unknown platform %q", cfg.Platform)
	}
	// Partition carving: every agent builds the same catalog platform and
	// pre-allocates the first SkipNodes nodes wholly, so its pilot's
	// first-available acquisition lands on the partition after them —
	// process-local mirroring of the in-proc consecutive-pilot carving.
	nodes := plat.Nodes()
	if cfg.SkipNodes < 0 || cfg.SkipNodes > len(nodes) {
		return fmt.Errorf("xproc: skip %d of %d nodes", cfg.SkipNodes, len(nodes))
	}
	for _, n := range nodes[:cfg.SkipNodes] {
		s := n.Spec()
		if a := n.TryAlloc(s.Cores, s.GPUs, s.MemGB); a == nil {
			return fmt.Errorf("xproc: carving node %s failed", n.Name())
		}
	}
	if cfg.Nodes <= 0 {
		// Whole remaining platform: everything after the carved partition.
		cfg.Nodes = len(nodes) - cfg.SkipNodes
	}

	clock := simtime.NewScaled(cfg.Scale, core.DefaultOrigin)
	src := rng.New(cfg.Seed)
	net := msgq.NewNetwork(clock, src.Derive("net"), nil)
	if err := net.SetTransport(msgq.TransportTCP); err != nil {
		return err
	}
	defer net.Close()

	p, err := pilot.Launch(pilot.Config{
		Clock:           clock,
		Src:             src.Derive("pilot." + cfg.UID),
		Net:             net,
		Platform:        plat,
		BootTime:        rng.ConstDuration(0),
		PublishOverhead: rng.ConstDuration(0),
		LaunchModel:     &platform.LaunchModel{},
		SchedPolicy:     cfg.SchedPolicy,
	}, spec.PilotDescription{UID: cfg.UID, Platform: cfg.Platform, Nodes: cfg.Nodes})
	if err != nil {
		return err
	}

	a := &agent{cfg: cfg, pilot: p, clock: clock, done: make(chan struct{})}
	srv, err := msgq.ListenTCP("127.0.0.1:0", a.handler())
	if err != nil {
		_ = p.Shutdown()
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n", readyPrefix, srv.Addr())

	// The driver holds our stdin pipe open for our lifetime: EOF means it
	// exited (or killed us softly) and we must not linger.
	go func() {
		_, _ = io.Copy(io.Discard, stdin)
		a.stop()
	}()

	<-a.done
	_ = srv.Close()
	_ = p.Shutdown()
	return nil
}

// agent is the server side of the control channel.
type agent struct {
	cfg   AgentConfig
	pilot *pilot.Pilot
	clock simtime.Clock

	stopOnce sync.Once
	done     chan struct{}
}

func (a *agent) stop() { a.stopOnce.Do(func() { close(a.done) }) }

// handler decodes control calls and dispatches them. Replies are
// kindResult envelopes with a replyBody JSON payload; errors travel as strings — the
// driver turns them back into errors.
func (a *agent) handler() msgq.Handler {
	return func(env proto.Envelope) proto.Envelope {
		var call callBody
		if err := env.Decode(kindCall, &call); err != nil {
			return a.reply(env, nil, err)
		}
		result, err := a.dispatch(call)
		return a.reply(env, result, err)
	}
}

func (a *agent) reply(req proto.Envelope, result any, err error) proto.Envelope {
	var body replyBody
	if err != nil {
		body.Err = err.Error()
	} else if result != nil {
		raw, merr := json.Marshal(result)
		if merr != nil {
			body.Err = merr.Error()
		} else {
			body.Result = raw
		}
	}
	out, _ := proto.NewEnvelope(kindResult, req.ID, a.cfg.UID, req.From, a.clock.Now(), body)
	return out
}

func (a *agent) dispatch(call callBody) (any, error) {
	switch call.Method {
	case "ping":
		return nil, nil
	case "shapes":
		return a.pilot.Shapes(), nil
	case "snapshot":
		return a.pilot.Snapshot(), nil
	case "submit":
		var args submitArgs
		if err := json.Unmarshal(call.Args, &args); err != nil {
			return nil, err
		}
		t, err := a.pilot.SubmitTask(context.Background(), args.Desc)
		if err != nil {
			return nil, err
		}
		return submitResult{UID: t.UID()}, nil
	case "wait":
		// One blocking RPC for the whole UID set: the driver waits once
		// per agent instead of holding a control worker per task.
		var args waitArgs
		if err := json.Unmarshal(call.Args, &args); err != nil {
			return nil, err
		}
		_ = a.pilot.WaitTasks(context.Background(), args.UIDs...)
		out := waitReply{Tasks: make([]TaskStatus, 0, len(args.UIDs))}
		for _, uid := range args.UIDs {
			st := TaskStatus{UID: uid}
			if t, ok := a.pilot.Task(uid); ok {
				st.State = string(t.State())
				if err := t.Result().Err; err != nil {
					st.Err = err.Error()
				}
			} else {
				st.State = "unknown"
			}
			out.Tasks = append(out.Tasks, st)
		}
		return out, nil
	case "svc_submit":
		var args svcSubmitArgs
		if err := json.Unmarshal(call.Args, &args); err != nil {
			return nil, err
		}
		inst, err := a.pilot.SubmitService(args.Desc)
		if err != nil {
			return nil, err
		}
		return submitResult{UID: inst.UID()}, nil
	case "svc_await":
		var args svcAwaitArgs
		if err := json.Unmarshal(call.Args, &args); err != nil {
			return nil, err
		}
		if err := a.pilot.WaitServices(context.Background(), args.UID); err != nil {
			return nil, err
		}
		inst, ok := a.pilot.Service(args.UID)
		if !ok {
			return nil, fmt.Errorf("xproc: service %s not found after ready", args.UID)
		}
		return svcAwaitReply{Endpoint: inst.Endpoint()}, nil
	case "shutdown":
		// Ack first, stop shortly after, so the reply frame reaches the
		// driver before the process exits.
		time.AfterFunc(100*time.Millisecond, a.stop)
		return nil, nil
	default:
		return nil, fmt.Errorf("xproc: unknown method %q", call.Method)
	}
}

// Package xproc runs pilots as separate OS processes reached over the TCP
// transport: multi-process sessions as a first-class scenario.
//
// A pilot-agent process is any binary that calls MaybeRunAgent early in
// main (cmd/rppilot, cmd/rpexp, and the experiments test binary all do).
// The driver re-executes its own binary with an AgentConfig in the
// RPPILOT_AGENT environment variable; the child detects it, launches a
// real pilot on a TCP-transport network, prints a one-line ready handshake
// with its control address on stdout, and serves control RPCs (task
// submission, service bootstrap, snapshots) as binary proto frames over
// TCP. Services the pilot hosts bind their own TCP endpoints and publish
// dialable "tcp://host:port" addresses, so the driver's clients reach them
// directly — the control channel is only for orchestration.
//
// See README "Multi-process sessions" and ARCHITECTURE.md Flow 8 for the
// bootstrap diagram.
package xproc

import (
	"encoding/json"

	"repro/internal/proto"
	"repro/internal/spec"
)

// envAgentConfig is the environment variable carrying the JSON AgentConfig
// that turns a process into a pilot agent.
const envAgentConfig = "RPPILOT_AGENT"

// readyPrefix starts the one-line stdout handshake: the agent prints
// "RPPILOT_READY <host:port>" once its control endpoint is listening.
const readyPrefix = "RPPILOT_READY "

// AgentConfig parameterizes one pilot-agent process.
type AgentConfig struct {
	// UID is the pilot UID (required; the driver names its agents).
	UID string `json:"uid"`
	// Platform is the catalog platform the agent instantiates a private
	// copy of. Every agent of one experiment builds the same platform and
	// carves its own partition out of it via SkipNodes/Nodes, mirroring
	// the in-proc experiments' consecutive-partition pilot carving.
	Platform string `json:"platform"`
	// SkipNodes pre-allocates the first SkipNodes nodes wholly before the
	// pilot acquires, so this agent's pilot lands on the nodes after them
	// (partition carving across processes).
	SkipNodes int `json:"skip_nodes"`
	// Nodes is the pilot's node count (<= 0: the whole remaining platform
	// after the carved partition).
	Nodes int `json:"nodes"`
	// Seed drives the agent's RNG tree.
	Seed uint64 `json:"seed"`
	// Scale is the agent clock compression (simtime.NewScaled at the
	// session origin): 0 selects 2000, anything else must be finite and
	// positive.
	Scale float64 `json:"scale"`
	// SchedPolicy names the agent scheduler's placement policy (empty:
	// strict).
	SchedPolicy string `json:"sched_policy,omitempty"`
}

// kindCall is the envelope kind of control RPCs on the agent channel.
// (proto.Kind is open-ended; the core message set is untouched.)
const kindCall proto.Kind = "xproc_call"

// callBody is a control RPC request: a method name plus JSON arguments.
type callBody struct {
	Method string          `json:"method"`
	Args   json.RawMessage `json:"args,omitempty"`
}

// replyBody is a control RPC response. Err is empty on success.
type replyBody struct {
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// TaskStatus is one settled task in a wait reply.
type TaskStatus struct {
	UID   string `json:"uid"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// Argument/result payloads per method. The zero-argument methods (ping,
// shapes, snapshot, shutdown) use no args.
type (
	submitArgs struct {
		// Desc serializes directly: spec.TaskDescription excludes the
		// in-process Func payload from JSON, and duration distributions
		// carry their own JSON codec.
		Desc spec.TaskDescription `json:"desc"`
	}
	submitResult struct {
		UID string `json:"uid"`
	}
	waitArgs struct {
		UIDs []string `json:"uids"`
	}
	waitReply struct {
		Tasks []TaskStatus `json:"tasks"`
	}
	svcSubmitArgs struct {
		Desc spec.ServiceDescription `json:"desc"`
	}
	svcAwaitArgs struct {
		UID string `json:"uid"`
	}
	svcAwaitReply struct {
		Endpoint proto.Endpoint `json:"endpoint"`
	}
)

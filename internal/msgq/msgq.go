// Package msgq is the communication substrate of the runtime — the Go
// analogue of the ZeroMQ infrastructure RADICAL-Pilot uses for API calls
// between services and clients. Its REQ/REP pattern runs over two
// transports:
//
//   - An in-process transport with injected, distribution-sampled link
//     latency driven by the session clock: each message hop costs its
//     caller one latency sample, whatever the message's size. The caller
//     sleeps it, except a queued request's reply hop on a virtual clock,
//     which the serving worker draws and pays by handing the reply over
//     that much later (proto.Envelope.LendHop). This is how the
//     experiments reproduce the paper's measured interconnects (Delta
//     inter-node 0.063 ms ± 0.014 ms; Delta↔R3 0.47 ms ± 0.04 ms)
//     deterministically.
//   - A TCP transport speaking length-prefixed proto frames, used for the
//     genuinely remote REST/R3 scenarios and to demonstrate that the
//     runtime works over real sockets.
//
// A PUB/SUB endpoint lives in process only and delivers in place, into each
// subscriber's buffered channel, over no modelled link.
package msgq

import (
	"context"
	"errors"
	"sync"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Common errors.
var (
	ErrClosed      = errors.New("msgq: endpoint closed")
	ErrUnknownAddr = errors.New("msgq: unknown address")
	ErrAddrInUse   = errors.New("msgq: address already bound")
)

// Handler serves one request and returns the reply envelope.
type Handler func(proto.Envelope) proto.Envelope

// Server is a bound REQ/REP endpoint.
type Server interface {
	Addr() string
	Close() error
}

// Client is a connected REQ/REP endpoint.
type Client interface {
	// Request sends env and blocks for the matching reply or ctx expiry.
	Request(ctx context.Context, env proto.Envelope) (proto.Envelope, error)
	Close() error
}

// Resolver maps a (client address, server address) pair to the latency of
// the link connecting them, sampled once per message hop (request and
// reply each pay one sample). The platform package supplies resolvers that
// encode local vs remote topology.
type Resolver func(from, to string) rng.DurationDist

// Network is the in-process transport: a set of named endpoints connected
// by latency-modelled links, all timed on a shared Clock.
//
// The endpoint registries are sync.Maps rather than mutex-guarded maps:
// lookups (Dial, Subscribe, and the request fast path's re-resolution
// after a server close) are lock-free, so thousands of concurrent clients
// never serialize on a global registry lock. The plain mutex only guards
// the closed flag and serializes Bind/Close registry writes.
type Network struct {
	clock   simtime.Clock
	src     *rng.Source
	resolve Resolver

	mu        sync.Mutex // guards closed and transport; serializes registry writes
	closed    bool
	transport string   // transport Bind registers on; zero value = inproc
	reps      sync.Map // addr → *inprocServer
	pubs      sync.Map // addr → *Publisher
	tcpBinds  sync.Map // addr → *tcpBind (logical name → TCP listener)
}

// NewNetwork returns an empty in-process network. resolve may be nil, in
// which case all links are zero-latency.
func NewNetwork(clock simtime.Clock, src *rng.Source, resolve Resolver) *Network {
	if resolve == nil {
		resolve = func(_, _ string) rng.DurationDist { return rng.DurationDist{} }
	}
	return &Network{
		clock:   clock,
		src:     src,
		resolve: resolve,
	}
}

// Close shuts down every endpoint.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	var reps []*inprocServer
	n.reps.Range(func(_, v any) bool {
		reps = append(reps, v.(*inprocServer))
		return true
	})
	var pubs []*Publisher
	n.pubs.Range(func(_, v any) bool {
		pubs = append(pubs, v.(*Publisher))
		return true
	})
	var tcps []*tcpBind
	n.tcpBinds.Range(func(_, v any) bool {
		tcps = append(tcps, v.(*tcpBind))
		return true
	})
	for _, s := range reps {
		_ = s.Close()
	}
	for _, p := range pubs {
		_ = p.Close()
	}
	for _, b := range tcps {
		_ = b.Close()
	}
	return nil
}

// hop simulates one message traversal over a link of latency, blocking
// the calling goroutine for one sampled delay.
func (n *Network) hop(latency rng.DurationDist) {
	if d := latency.Sample(n.src); d > 0 {
		n.clock.Sleep(d)
	}
}

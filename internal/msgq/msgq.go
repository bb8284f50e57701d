// Package msgq is the communication substrate of the runtime — the Go
// analogue of the ZeroMQ infrastructure RADICAL-Pilot uses for API calls
// between services and clients. It offers two socket patterns (REQ/REP and
// PUB/SUB) over two transports:
//
//   - An in-process transport with injected, distribution-sampled link
//     latency driven by the session clock. This is how the experiments
//     reproduce the paper's measured interconnects (Delta inter-node
//     0.063 ms ± 0.014 ms; Delta↔R3 0.47 ms ± 0.04 ms) deterministically.
//   - A TCP transport speaking length-prefixed proto frames, used for the
//     genuinely remote REST/R3 scenarios and to demonstrate that the
//     runtime works over real sockets.
package msgq

import (
	"context"
	"errors"
	"sync"
	"time"

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

// LinkProfile describes one directed network link.
type LinkProfile struct {
	// Latency is sampled once per message hop (request and reply each pay
	// one sample), modelling one-way packet latency.
	Latency rng.DurationDist
	// BytesPerSec caps throughput; zero means unbounded. Transfer time is
	// added on top of latency for the message's encoded size.
	BytesPerSec float64
}

// Resolver maps a (client address, server address) pair to the link profile
// connecting them. The platform package supplies resolvers that encode
// local vs remote topology.
type Resolver func(from, to string) LinkProfile

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
	pubs      sync.Map // addr → *inprocPublisher
	tcpBinds  sync.Map // addr → *tcpBind (logical name → TCP listener)
}

// NewNetwork returns an empty in-process network. resolve may be nil, in
// which case all links are zero-latency and unbounded.
func NewNetwork(clock simtime.Clock, src *rng.Source, resolve Resolver) *Network {
	if resolve == nil {
		resolve = func(_, _ string) LinkProfile { return LinkProfile{} }
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
	var pubs []*inprocPublisher
	n.pubs.Range(func(_, v any) bool {
		pubs = append(pubs, v.(*inprocPublisher))
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

// hopDelay returns the simulated traversal time of a message of bodyLen
// encoded bytes over profile: one latency sample plus serialization time
// for the size. It takes the size rather than the envelope so hot-path
// callers never force their envelope to escape to the heap.
func (n *Network) hopDelay(profile LinkProfile, bodyLen int) time.Duration {
	d := profile.Latency.Sample(n.src)
	if profile.BytesPerSec > 0 {
		size := bodyLen + 64 // envelope header overhead estimate
		d += time.Duration(float64(size) / profile.BytesPerSec * float64(time.Second))
	}
	return d
}

// hop simulates one message traversal over profile, blocking the calling
// goroutine for the sampled delay.
func (n *Network) hop(profile LinkProfile, bodyLen int) {
	if d := n.hopDelay(profile, bodyLen); d > 0 {
		n.clock.Sleep(d)
	}
}

// wireLen returns the encoded body size of env when profile charges for
// bandwidth, and 0 otherwise. Envelope bodies encode lazily: forcing the
// encode just to measure a size that latency-only links ignore would put
// json.Marshal back on the in-proc hot path, so the size is materialized
// only for bandwidth-capped links. env is taken by value so the hot
// path's envelope never escapes to the heap.
func wireLen(profile LinkProfile, env proto.Envelope) int {
	if profile.BytesPerSec <= 0 {
		return 0
	}
	return env.EncodedBodyLen()
}

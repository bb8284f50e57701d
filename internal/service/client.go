// Package service is the client side of the paper's service-oriented
// runtime extension: the session's EndpointRegistry, where services publish
// and clients resolve, the Client a task holds on one endpoint, the Balancer
// that spreads a service's requests over its replicas, and the split of a
// response time into its parts (DecomposeRT). The agent side, which
// bootstraps, probes and terminates service tasks on a pilot, is
// pilot.Service.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// Caller is the client-side inference interface, satisfied by the
// package's two client types (Client, bound to one endpoint, and
// Balancer, bound to a service UID) and by restapi.Caller. Client tasks
// program against Caller, so local and remote model instances are
// interchangeable — the interoperability §III requires.
type Caller interface {
	// Infer performs one synchronous inference and returns the reply and
	// the RT breakdown (communication / service / inference).
	Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error)
	Close() error
}

// Client is the task-side view of one service: it sends inference requests
// through the service's published endpoint and decomposes each response
// time into the paper's communication / service / inference components.
type Client struct {
	uid   string // client (task) UID, also its transport address
	clock simtime.Clock
	conn  msgq.Client
	ep    proto.Endpoint

	uidPrefix string // precomputed "<uid>.req." request-UID prefix
	seq       atomic.Uint64
	// uids is the newest block of request UIDs spelled; requestUID slices
	// its UIDs out of it.
	uids atomic.Pointer[uidBlock]
}

// uidBlockLen is how many consecutive request UIDs one block holds: a
// spec.UIDBlock's length, which UID never respells within.
const uidBlockLen = 100

// uidBlock is a client's shared block of request UIDs, of ids first …
// first+uidBlockLen-1: spelled before it is published, only read after.
type uidBlock struct {
	first uint64
	spec.UIDBlock
}

// Dial connects clientUID (an address, typically platform.Addr of the
// client task) to the service endpoint ep over net.
func Dial(net *msgq.Network, clock simtime.Clock, clientUID string, ep proto.Endpoint) (*Client, error) {
	conn, err := net.Dial(clientUID, ep.Address)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", ep.ServiceUID, err)
	}
	return &Client{uid: clientUID, clock: clock, conn: conn, ep: ep, uidPrefix: clientUID + ".req."}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Infer performs one synchronous inference call and returns the reply plus
// the RT breakdown:
//
//	communication — transport time (request + reply hops)
//	service       — service-side queueing, parsing and serialization
//	inference     — pure model compute
//
// The total response time (RT of Exp 2/3) is the sum of the three.
func (c *Client) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	id := c.seq.Add(1)

	env := proto.NewRequest(id, c.uid, c.ep.ServiceUID, proto.InferenceRequest{
		RequestUID: c.requestUID(id),
		ClientUID:  c.uid,
		Model:      c.ep.Model,
		Prompt:     prompt,
		MaxTokens:  maxTokens,
		SentAt:     c.clock.Now(),
	})
	start := c.clock.Now()
	out, err := c.conn.Request(ctx, env)
	total := c.clock.Now().Sub(start)
	if err != nil {
		// env's exchange is left to the garbage collector: a request
		// abandoned on ctx expiry may still be answered into it.
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	reply, err := out.DecodeReply()
	env.Release() // the round trip is over and its reply read
	if err == nil && reply.Err != "" {
		err = errors.New(reply.Err)
	}
	if err != nil {
		return reply, metrics.Breakdown{}, fmt.Errorf("service %s: %w", c.ep.ServiceUID, err)
	}
	return reply, DecomposeRT(total, reply.Timing), nil
}

// requestUID renders "<client>.req.NNNNNN" (zero-padded to six digits, as
// fmt.Sprintf's "%06d" spells it) as a substring of the block that
// holds id, so a UID costs no allocation of its own. A caller whose id lies
// outside the current block spells id's block itself and keeps it only if
// it is newer, so a straggler never evicts the block in use.
func (c *Client) requestUID(id uint64) string {
	if b := c.uids.Load(); b != nil && id-b.first < uidBlockLen { // id < first wraps round
		return b.UID(c.uidPrefix, id)
	}
	b := &uidBlock{first: id - id%uidBlockLen}
	uid := b.UID(c.uidPrefix, id)
	for cur := c.uids.Load(); cur == nil || cur.first < b.first; cur = c.uids.Load() {
		if c.uids.CompareAndSwap(cur, b) {
			break
		}
	}
	return uid
}

// DecomposeRT splits a measured round-trip total into the paper's RT
// components using the service-side timestamps. Client and service share
// the session clock domain (as they share a synchronized testbed clock in
// the paper's measurements).
func DecomposeRT(total time.Duration, t proto.Timing) metrics.Breakdown {
	infer := t.InferTime()
	svc := t.ServiceTime()
	if svc < 0 {
		svc = 0
	}
	comm := total - infer - svc
	if comm < 0 {
		comm = 0
	}
	return metrics.Breakdown{{"communication", comm}, {"service", svc}, {"inference", infer}}
}

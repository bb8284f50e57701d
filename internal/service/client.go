package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
	"repro/internal/simtime"
)

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

// Endpoint returns the endpoint this client talks to.
func (c *Client) Endpoint() proto.Endpoint { return c.ep }

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

	req := proto.InferenceRequest{
		RequestUID: c.requestUID(id),
		ClientUID:  c.uid,
		Model:      c.ep.Model,
		Prompt:     prompt,
		MaxTokens:  maxTokens,
		SentAt:     c.clock.Now(),
	}
	env, err := proto.NewEnvelope(proto.KindRequest, id, c.uid, c.ep.ServiceUID, req.SentAt, req)
	if err != nil {
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	start := c.clock.Now()
	out, err := c.conn.Request(ctx, env)
	total := c.clock.Now().Sub(start)
	if err != nil {
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	if out.Kind == proto.KindError {
		var eb proto.ErrorBody
		if err := out.Decode(proto.KindError, &eb); err != nil {
			return proto.InferenceReply{}, metrics.Breakdown{}, fmt.Errorf("service %s: %w", c.ep.ServiceUID, err)
		}
		return proto.InferenceReply{}, metrics.Breakdown{}, fmt.Errorf("service %s: %s", c.ep.ServiceUID, eb.Msg)
	}
	var reply proto.InferenceReply
	if err := out.Decode(proto.KindReply, &reply); err != nil {
		return proto.InferenceReply{}, metrics.Breakdown{}, err
	}
	if reply.Err != "" {
		return reply, metrics.Breakdown{}, errors.New(reply.Err)
	}
	return reply, DecomposeRT(total, reply.Timing), nil
}

// requestUID renders "<client>.req.NNNNNN" (zero-padded to six digits,
// like the seed's fmt.Sprintf format) in one allocation.
func (c *Client) requestUID(id uint64) string {
	buf := make([]byte, 0, len(c.uidPrefix)+20)
	buf = append(buf, c.uidPrefix...)
	for w := uint64(100000); w > 1 && id < w; w /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendUint(buf, id, 10)
	return string(buf)
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
	return metrics.Breakdown{Components: map[string]time.Duration{
		"communication": comm,
		"service":       svc,
		"inference":     infer,
	}}
}

package msgq

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// inprocServer is a REQ/REP endpoint on a Network.
type inprocServer struct {
	net     *Network
	addr    string
	handler Handler
	closed  atomic.Bool
}

// bindInproc registers an in-process REQ/REP server at addr. Requests are
// served concurrently; serialization (e.g. the paper's single-threaded
// services) is the handler's responsibility.
func (n *Network) bindInproc(addr string, h Handler) (Server, error) {
	if h == nil {
		return nil, fmt.Errorf("msgq: bind %s: nil handler", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	s := &inprocServer{net: n, addr: addr, handler: h}
	if _, loaded := n.reps.LoadOrStore(addr, s); loaded {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	return s, nil
}

// Addr implements Server.
func (s *inprocServer) Addr() string { return s.addr }

// Close implements Server.
func (s *inprocServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Delete only our own registration: the address may have been rebound
	// by the time a second Close runs.
	s.net.reps.CompareAndDelete(s.addr, s)
	return nil
}

func (s *inprocServer) isClosed() bool { return s.closed.Load() }

// inprocClient is a connected REQ/REP client.
//
// The server pointer is cached at Dial time (and refreshed if that server
// closes), so the request hot path touches no registry at all: a round
// trip is two latency hops and one handler call, with no goroutine spawn,
// no channel allocation and no shared lock when the context is not
// cancellable — the paper's synchronous REQ/REP round trip executed
// entirely on the calling goroutine.
type inprocClient struct {
	net     *Network
	from    string
	to      string
	latency rng.DurationDist
	// replyHop draws the reply hop's delay for a server to pay
	// (proto.Envelope.LendHop). It is made once, at Dial, and only on a
	// virtual clock; nil otherwise.
	replyHop func() time.Duration

	srv    atomic.Pointer[inprocServer]
	closed atomic.Bool
}

// dialInproc connects a client at address from to the in-process server
// bound at to (the transport-dispatching entry point is Network.Dial in
// transport.go). The link latency and the server endpoint are resolved
// once at dial time, mirroring a connected socket.
func (n *Network) dialInproc(from, to string) (Client, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	v, ok := n.reps.Load(to)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAddr, to)
	}
	c := &inprocClient{net: n, from: from, to: to, latency: n.resolve(from, to)}
	if simtime.RunnersOf(n.clock) != nil {
		c.replyHop = func() time.Duration { return c.latency.Sample(n.src) }
	}
	c.srv.Store(v.(*inprocServer))
	return c, nil
}

// server returns the live server for c.to, re-resolving through the
// registry when the cached endpoint has closed (the address may have been
// rebound since).
func (c *inprocClient) server() (*inprocServer, error) {
	srv := c.srv.Load()
	if srv != nil && !srv.isClosed() {
		return srv, nil
	}
	v, ok := c.net.reps.Load(c.to)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAddr, c.to)
	}
	srv = v.(*inprocServer)
	if srv.isClosed() {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAddr, c.to)
	}
	c.srv.Store(srv)
	return srv, nil
}

// Request implements Client. The calling goroutine pays the request hop,
// the handler execution, and the reply hop — matching the synchronous
// REQ/REP round trip the paper's response-time metric measures.
//
// With a non-cancellable context the whole round trip runs inline on the
// calling goroutine. On a virtual clock it lends the server the reply hop
// (proto.Envelope.LendHop): a server that answers from another goroutine
// takes it and hands the reply over at the instant the hop delivers it,
// so the caller parks once for the reply and its hop; when the handler
// leaves the hop lent, the caller sleeps it here. Only a cancellable
// context takes the asynchronous path, where a helper goroutine lets
// Request return at ctx expiry even while the handler still blocks.
func (c *inprocClient) Request(ctx context.Context, env proto.Envelope) (proto.Envelope, error) {
	if c.closed.Load() {
		return proto.Envelope{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return proto.Envelope{}, err
	}
	srv, err := c.server()
	if err != nil {
		return proto.Envelope{}, err
	}

	if ctx.Done() == nil {
		// Fast path: synchronous round trip, zero allocations in the
		// transport.
		c.net.hop(c.latency)
		if srv.isClosed() {
			return proto.Envelope{}, ErrClosed
		}
		lent := c.replyHop != nil && env.LendHop(c.replyHop)
		reply := srv.handler(env)
		if !lent || env.TakeHop() != nil {
			c.net.hop(c.latency)
		}
		return reply, nil
	}

	type result struct {
		env proto.Envelope
		err error
	}
	done := make(chan result, 1)
	go func() {
		c.net.hop(c.latency) // request traversal
		if srv.isClosed() {
			done <- result{err: ErrClosed}
			return
		}
		reply := srv.handler(env)
		c.net.hop(c.latency) // reply traversal
		done <- result{env: reply}
	}()
	select {
	case r := <-done:
		return r.env, r.err
	case <-ctx.Done():
		return proto.Envelope{}, ctx.Err()
	}
}

// Close implements Client.
func (c *inprocClient) Close() error {
	c.closed.Store(true)
	return nil
}

// --- PUB/SUB --------------------------------------------------------------

// Subscription receives published envelopes for its topics.
type Subscription struct {
	C      <-chan proto.Envelope
	cancel func()
}

// Cancel removes the subscription and closes C.
func (s *Subscription) Cancel() {
	if s.cancel != nil {
		s.cancel()
	}
}

// subscriber is one subscription's topic filter and delivery channel.
type subscriber struct {
	topics map[string]bool // empty set = all topics
	ch     chan proto.Envelope
}

// Publisher is a bound PUB endpoint: it broadcasts envelopes to topic
// subscribers.
type Publisher struct {
	net  *Network
	addr string

	mu     sync.Mutex
	closed bool
	nextID uint64
	subs   map[uint64]*subscriber
}

// BindPub registers a PUB endpoint at addr.
func (n *Network) BindPub(addr string) (*Publisher, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	p := &Publisher{net: n, addr: addr, subs: make(map[uint64]*subscriber)}
	if _, loaded := n.pubs.LoadOrStore(addr, p); loaded {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	return p, nil
}

// Subscribe attaches to the PUB endpoint at addr, receiving envelopes whose
// topic is in topics (all topics when none given) on a channel of buffer
// slots. A subscriber whose channel is full drops the message rather than
// block the publisher, matching PUB/SUB semantics. from names the
// subscriber and is unused: delivery is in place, over no modelled link.
func (n *Network) Subscribe(from, addr string, buffer int, topics ...string) (*Subscription, error) {
	v, ok := n.pubs.Load(addr)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAddr, addr)
	}
	p := v.(*Publisher)
	if buffer <= 0 {
		buffer = 64
	}
	sub := &subscriber{topics: make(map[string]bool, len(topics)), ch: make(chan proto.Envelope, buffer)}
	for _, t := range topics {
		sub.topics[t] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	p.nextID++
	id := p.nextID
	p.subs[id] = sub
	return &Subscription{
		C: sub.ch,
		cancel: func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			if _, ok := p.subs[id]; ok {
				delete(p.subs, id)
				close(sub.ch)
			}
		},
	}, nil
}

// Publish sends env to every subscriber of topic, in place on the caller:
// a subscriber whose channel is full misses it. Sends and closes of a
// subscriber's channel both happen under p.mu, so a cancellation never
// races a send.
func (p *Publisher) Publish(topic string, env proto.Envelope) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.subs {
		if len(s.topics) != 0 && !s.topics[topic] {
			continue
		}
		select {
		case s.ch <- env:
		default: // subscriber's channel full: drop, never block the publisher
		}
	}
}

// Close unbinds the endpoint and ends every subscription.
func (p *Publisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for id, s := range p.subs {
		delete(p.subs, id)
		close(s.ch)
	}
	p.mu.Unlock()
	p.net.pubs.CompareAndDelete(p.addr, p)
	return nil
}

package msgq

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
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
	profile LinkProfile

	srv    atomic.Pointer[inprocServer]
	closed atomic.Bool
}

// dialInproc connects a client at address from to the in-process server
// bound at to (the transport-dispatching entry point is Network.Dial in
// transport.go). The link profile and the server endpoint are resolved
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
	c := &inprocClient{net: n, from: from, to: to, profile: n.resolve(from, to)}
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
// calling goroutine. Only a cancellable context takes the asynchronous
// path, where a helper goroutine lets Request return at ctx expiry even
// while the handler still blocks.
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
		c.net.hop(c.profile, wireLen(c.profile, env))
		if srv.isClosed() {
			return proto.Envelope{}, ErrClosed
		}
		reply := srv.handler(env)
		c.net.hop(c.profile, wireLen(c.profile, reply))
		return reply, nil
	}

	type result struct {
		env proto.Envelope
		err error
	}
	done := make(chan result, 1)
	go func() {
		c.net.hop(c.profile, wireLen(c.profile, env)) // request traversal
		if srv.isClosed() {
			done <- result{err: ErrClosed}
			return
		}
		reply := srv.handler(env)
		c.net.hop(c.profile, wireLen(c.profile, reply)) // reply traversal
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

// Publisher broadcasts envelopes to topic subscribers.
type Publisher interface {
	Publish(topic string, env proto.Envelope)
	// Subscribed reports whether a Publish on topic would reach a
	// subscriber now: a caller may skip building an envelope for nobody.
	Subscribed(topic string) bool
	Addr() string
	Close() error
}

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

// pubItem is one pending delivery in a subscriber's ring: the envelope
// plus the clock time at which its simulated traversal completes.
type pubItem struct {
	env       proto.Envelope
	deliverAt time.Time
}

// subscriber owns one persistent delivery worker. The publisher enqueues
// into ring (dropping when the subscriber lags, per PUB/SUB semantics);
// the worker waits out each message's link traversal and forwards it to
// ch. The link profile is resolved once at subscribe time.
type subscriber struct {
	id      uint64
	topics  map[string]bool // empty set = all topics
	ch      chan proto.Envelope
	from    string
	profile LinkProfile
	ring    chan pubItem
	stop    chan struct{}
}

type inprocPublisher struct {
	net  *Network
	addr string

	mu     sync.Mutex
	closed bool
	nextID uint64
	subs   map[uint64]*subscriber
}

// BindPub registers a PUB endpoint at addr.
func (n *Network) BindPub(addr string) (Publisher, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	p := &inprocPublisher{net: n, addr: addr, subs: make(map[uint64]*subscriber)}
	if _, loaded := n.pubs.LoadOrStore(addr, p); loaded {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	return p, nil
}

// Subscribe attaches to the PUB endpoint at addr, receiving envelopes whose
// topic is in topics (all topics when none given). buffer sizes both the
// delivery channel and the worker's pending ring; slow subscribers drop
// messages rather than block the publisher, matching PUB/SUB semantics.
func (n *Network) Subscribe(from, addr string, buffer int, topics ...string) (*Subscription, error) {
	v, ok := n.pubs.Load(addr)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAddr, addr)
	}
	p := v.(*inprocPublisher)
	if buffer <= 0 {
		buffer = 64
	}
	ts := make(map[string]bool, len(topics))
	for _, t := range topics {
		ts[t] = true
	}
	sub := &subscriber{
		topics:  ts,
		ch:      make(chan proto.Envelope, buffer),
		from:    from,
		profile: n.resolve(addr, from),
		ring:    make(chan pubItem, buffer),
		stop:    make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.nextID++
	sub.id = p.nextID
	p.subs[sub.id] = sub
	p.mu.Unlock()
	go p.deliverLoop(sub)
	return &Subscription{
		C: sub.ch,
		cancel: func() {
			p.mu.Lock()
			if _, ok := p.subs[sub.id]; ok {
				delete(p.subs, sub.id)
				close(sub.stop)
			}
			p.mu.Unlock()
		},
	}, nil
}

// deliverLoop is a subscriber's persistent delivery worker: it drains the
// pending ring, waits until each message's simulated arrival time, and
// forwards it. It owns closing sub.ch, so cancellation never races a
// send-on-closed-channel.
func (p *inprocPublisher) deliverLoop(sub *subscriber) {
	defer close(sub.ch)
	for {
		select {
		case <-sub.stop:
			return
		case it := <-sub.ring:
			if wait := it.deliverAt.Sub(p.net.clock.Now()); wait > 0 {
				t := p.net.clock.NewTimer(wait)
				select {
				case <-t.C():
				case <-sub.stop:
					t.Stop()
					return
				}
			}
			select {
			case sub.ch <- it.env:
			default: // slow subscriber: drop
			}
		}
	}
}

// Publish implements Publisher. Delivery is asynchronous per subscriber
// through its persistent worker: the publisher only samples the link
// traversal and enqueues — no goroutine is spawned and no profile is
// re-resolved per message.
func (p *inprocPublisher) Publish(topic string, env proto.Envelope) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	var now time.Time
	for _, s := range p.subs {
		if len(s.topics) != 0 && !s.topics[topic] {
			continue
		}
		if now.IsZero() {
			now = p.net.clock.Now()
		}
		it := pubItem{env: env, deliverAt: now.Add(p.net.hopDelay(s.profile, wireLen(s.profile, env)))}
		select {
		case s.ring <- it:
		default: // subscriber's ring full: drop, never block the publisher
		}
	}
}

// Subscribed implements Publisher.
func (p *inprocPublisher) Subscribed(topic string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.subs {
		if len(s.topics) == 0 || s.topics[topic] {
			return true
		}
	}
	return false
}

// Addr implements Publisher.
func (p *inprocPublisher) Addr() string { return p.addr }

// Close implements Publisher.
func (p *inprocPublisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for id, s := range p.subs {
		delete(p.subs, id)
		close(s.stop)
	}
	p.mu.Unlock()
	p.net.pubs.CompareAndDelete(p.addr, p)
	return nil
}

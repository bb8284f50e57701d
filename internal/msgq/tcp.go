package msgq

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/proto"
)

// Pooled, zero-copy TCP REQ/REP transport.
//
// The read path pulls length-prefixed binary frames (proto.AppendFrame /
// proto.DecodeFrame) into recycled buffers through a buffered reader:
// header fields are parsed in place and the JSON body is retained as a
// sub-slice of the buffer. A request or reply body in the hand codec's
// shape is then decoded once, on the read loop, into an exchange
// (proto.Envelope.DecodeExchange, the one door through which a wire body
// is hand-decoded); any other body is left to encoding/json. The write
// path assembles the frame into a per-connection scratch buffer and issues
// a single conn.Write per message, with one JSON pass.
//
// Buffer ownership rules (see ARCHITECTURE.md Flow 8):
//   - Server side: the request buffer belongs to the transport. A handler
//     may read the request Body only until its reply frame has been
//     encoded; the buffer is recycled immediately after the reply write.
//     A request decoded into a pooled exchange is answered into it
//     (proto.Envelope.Answer) and released once, after the reply write.
//     A foreign writer's body the hand codec declines has no exchange: its
//     answer takes one of its own, which the garbage collector reclaims.
//   - Client side: a reply is decoded into the exchange of the request it
//     answers, the one proto.NewRequest made, after its waiter is won, and
//     drops its Body; the sender releases the exchange as in process. A
//     reply to a request with no exchange and a body the hand codec
//     declines are copied out of the read buffer before delivery, because
//     the envelope escapes to the caller with no lifetime bound.

// framePool recycles frame read buffers across connections and requests.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledBuf caps the capacity of buffers returned to framePool (and of
// retained write scratch buffers) so one huge frame does not pin a huge
// buffer forever.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return framePool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	framePool.Put(b)
}

// errConnTorn reports a reply write refused because the connection was
// already torn down (peer hangup, malformed frame, or server Close) — as
// opposed to a write that itself failed on a live connection.
var errConnTorn = errors.New("msgq: connection torn down")

// connWorkers bounds the handler goroutines per server connection. When
// every worker is busy and the queue is full, the connection's read loop
// blocks — natural TCP backpressure — instead of spawning a goroutine per
// request.
const connWorkers = 8

// TCPServer is a REQ/REP endpoint over real TCP sockets speaking binary
// proto frames. Multiple requests may be in flight on one connection;
// replies are matched to requests by envelope ID. Dispatch is
// connection-local: a bounded worker set per connection.
type TCPServer struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	closed bool
	conns  map[*tcpConn]struct{}
	wg     sync.WaitGroup

	dropped atomic.Uint64
}

// ListenTCP binds a REQ/REP server on addr ("host:port"; ":0" picks a free
// port).
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	if h == nil {
		return nil, fmt.Errorf("msgq: listen %s: nil handler", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msgq: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[*tcpConn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr implements Server.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// DroppedReplies reports how many handler replies could not be written
// because their connection was already torn down. A nonzero value after
// Close is expected when handlers were still running; a climbing value on
// a live server means peers are hanging up mid-request.
func (s *TCPServer) DroppedReplies() uint64 { return s.dropped.Load() }

// Close implements Server. It does not wait for in-flight handlers (a
// stuck handler must not wedge Close); their reply writes fail with the
// torn-connection sentinel and are counted by DroppedReplies.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*tcpConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.tear()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &tcpConn{srv: s, conn: conn, br: bufio.NewReaderSize(conn, 32<<10),
			reqs: make(chan connReq, connWorkers)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.readLoop()
	}
}

// connReq is one decoded request handed from a connection's read loop to a
// worker, together with the pooled buffer its Body aliases.
type connReq struct {
	env proto.Envelope
	buf *[]byte
}

// tcpConn is one accepted server connection: buffered frame reads, a
// bounded worker set, and checked single-write replies behind a shared
// scratch buffer.
type tcpConn struct {
	srv  *TCPServer
	conn net.Conn
	br   *bufio.Reader

	wmu     sync.Mutex
	scratch []byte

	// down flips exactly once when the connection is torn (read loop
	// exit, write failure, or server Close); the underlying conn is
	// closed by whichever side wins the flip, never twice.
	down atomic.Bool

	reqs    chan connReq
	workers int          // owned by the read loop
	idle    atomic.Int32 // workers done with their last request and not yet handed another
}

// tear marks the connection down and closes it exactly once.
func (c *tcpConn) tear() {
	if c.down.CompareAndSwap(false, true) {
		_ = c.conn.Close()
	}
}

// readLoop reads frames into pooled buffers and dispatches them. It is the
// only goroutine that sends on (and therefore closes) c.reqs.
func (c *tcpConn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.tear()
		close(c.reqs) // workers drain the queue, then exit
	}()
	// The interner is read-loop-local: header strings repeat per peer.
	in := proto.NewInterner()
	for {
		buf := getBuf()
		payload, err := proto.ReadFramePayload(c.br, buf)
		if err != nil {
			putBuf(buf)
			return // EOF on clean close; any error (incl. corrupt frame) tears the conn
		}
		env, err := proto.DecodeFrameInterned(payload, in)
		if err != nil {
			putBuf(buf)
			return
		}
		// Every request is decoded here, before a handler asks: every
		// program's handler (serving's) reads its request, and only echo
		// handlers in tests and benchmarks would not. The read loop's
		// interner is single-goroutine state, so the decode cannot move to
		// a worker without one interner per worker.
		env.DecodeExchange(proto.Envelope{}, in)
		req := connReq{env: env, buf: buf}
		// Lazily grow the worker set: the request goes to an idle worker,
		// else to a new one, up to the bound; a request never waits behind
		// a busy handler while the bound allows another worker. At the
		// bound a full queue blocks the read loop — backpressure, not
		// goroutine spray.
		if c.idle.Load() > 0 {
			c.idle.Add(-1) // only the read loop takes a worker, so it stays claimed
		} else if c.workers < connWorkers {
			c.workers++
			go c.worker()
		}
		c.reqs <- req
	}
}

// worker serves queued requests until the read loop closes the queue.
// Workers are deliberately not tracked by the server WaitGroup: Close must
// not block on a stuck handler; torn-connection reply writes are dropped
// and counted instead.
func (c *tcpConn) worker() {
	for req := range c.reqs {
		c.serve(req)
		c.idle.Add(1)
	}
}

// serve runs the handler and writes the reply, then recycles the request
// buffer and the request's exchange, which an answer shares
// (proto.Envelope.Answer); a request the read loop could not decode has
// none, and Release does nothing. Both are recycled only after the reply
// write: the handler or the reply envelope may alias the request Body
// (echo handlers), and the ownership contract extends exactly until the
// reply frame is encoded.
func (c *tcpConn) serve(req connReq) {
	reply := c.srv.handler(req.env)
	reply.ID = req.env.ID // replies are matched by request ID
	if err := c.writeFrame(&reply); err != nil {
		c.srv.dropped.Add(1)
	}
	req.env.Release()
	putBuf(req.buf)
}

// writeFrame encodes env into the connection scratch buffer and writes it
// in a single syscall. It is the checked write: a connection already torn
// down returns errConnTorn without touching the socket (no spurious
// double-Close), while a genuine write failure tears the connection and
// returns the real error.
func (c *tcpConn) writeFrame(env *proto.Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.down.Load() {
		return errConnTorn
	}
	b, err := proto.AppendFrame(c.scratch[:0], env)
	if err != nil {
		// The peer's matching request would hang forever without a
		// reply; tearing the connection fails it over there instead.
		c.tear()
		return err
	}
	if cap(b) <= maxPooledBuf {
		c.scratch = b[:0]
	} else {
		c.scratch = nil
	}
	if _, err := c.conn.Write(b); err != nil {
		if c.down.Load() {
			// Close raced in under the write: torn down, not broken.
			return errConnTorn
		}
		c.tear()
		return err
	}
	return nil
}

// --- client --------------------------------------------------------------

// Pending-reply table: requests park in reusable waiter slots behind one
// mutex instead of a map[uint64]chan. An envelope ID encodes
// generation<<32 | slot, so the read loop finds its waiter by index with
// no map traffic, and slot reuse is detected by generation mismatch rather
// than ABA on the ID.
const maxInFlight = 1 << 16 // in-flight bound: requests pending on one client

// waiter lifecycle, advanced by compare-and-swap so exactly one of
// {reply, cancel, connection error} wins a slot.
const (
	waiterIdle      uint32 = iota // in the free list
	waiterArmed                   // request in flight
	waiterDelivered               // read loop (or error walker) owns the result
	waiterCancelled               // requester withdrew (ctx or write error)
)

// waiter is one reusable pending-request slot.
type waiter struct {
	state atomic.Uint32
	gen   uint32          // bumped per acquisition; guarded by TCPClient.pmu
	req   proto.Envelope  // the request in flight, whose exchange its reply fills; guarded by TCPClient.pmu
	ch    chan waitResult // buffered 1, reused across acquisitions
}

type waitResult struct {
	env proto.Envelope
	err error
}

// TCPClient is a REQ/REP client over one TCP connection with an ID-matched
// reply mux, allowing concurrent Request calls. See the pending-reply
// table notes above for how replies find their requesters.
type TCPClient struct {
	conn net.Conn
	br   *bufio.Reader

	wmu     sync.Mutex // frame write serialization
	scratch []byte

	pmu   sync.Mutex // guards slots, free and each waiter's gen and req
	slots []*waiter
	free  []int32

	closed atomic.Bool
	dead   atomic.Bool // read loop has failed; set before the error walk
	errMu  sync.Mutex
	errVal error

	late atomic.Uint64
}

// DialTCP connects to a TCP server.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msgq: dial %s: %w", addr, err)
	}
	c := &TCPClient{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}
	go c.readLoop()
	return c, nil
}

// LateReplies reports how many replies arrived for requests that were no
// longer waiting — cancelled by context, failed at write time, or already
// completed under a recycled slot generation. The gauge makes the
// cancel/reply race observable.
func (c *TCPClient) LateReplies() uint64 { return c.late.Load() }

func (c *TCPClient) readErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.errVal == nil {
		return ErrClosed
	}
	return c.errVal
}

// fail records the terminal read error, then wakes every armed waiter.
// The dead flag is stored before the slot walk and Request re-checks it
// after arming — the flag-flag protocol guarantees at least one side sees
// the other, so no waiter can arm itself into a dead table and hang.
func (c *TCPClient) fail(err error) {
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		err = ErrClosed
	}
	c.errMu.Lock()
	if c.errVal == nil {
		c.errVal = err
	} else {
		err = c.errVal
	}
	c.errMu.Unlock()
	c.dead.Store(true)
	c.pmu.Lock()
	for _, w := range c.slots {
		if w.state.CompareAndSwap(waiterArmed, waiterDelivered) {
			w.ch <- waitResult{err: err}
		}
	}
	c.pmu.Unlock()
}

func (c *TCPClient) readLoop() {
	var buf []byte
	in := proto.NewInterner()
	for {
		payload, err := proto.ReadFramePayload(c.br, &buf)
		if err != nil {
			c.fail(err)
			return
		}
		env, err := proto.DecodeFrameInterned(payload, in)
		if err != nil {
			c.fail(err)
			return
		}
		c.deliver(env, in)
	}
}

// deliver routes one reply to its waiter, or counts it late. The CAS to
// waiterDelivered is the race decider: a concurrent cancel that lost it
// will collect this result instead of its context error. Only the winner
// decodes into the request's exchange, so an abandoned request's exchange
// is never written.
func (c *TCPClient) deliver(env proto.Envelope, in *proto.Interner) {
	gen, slot := uint32(env.ID>>32), uint64(uint32(env.ID))
	c.pmu.Lock()
	if slot >= uint64(len(c.slots)) {
		c.pmu.Unlock()
		c.late.Add(1)
		return
	}
	w := c.slots[slot]
	if w.gen != gen || !w.state.CompareAndSwap(waiterArmed, waiterDelivered) {
		c.pmu.Unlock()
		c.late.Add(1)
		return
	}
	req := w.req
	c.pmu.Unlock()
	if env.DecodeExchange(req, in) {
		env.Body = nil // the reply lives in req's exchange; the read buffer is reused for the next frame
	} else if env.Body != nil {
		// The envelope escapes to the requester with no lifetime bound,
		// while the read buffer is reused for the very next frame.
		env.Body = append([]byte(nil), env.Body...)
	}
	w.ch <- waitResult{env: env} // buffered; the slot is not recycled until received
}

// acquire arms a waiter slot for req and returns it with its wire ID.
func (c *TCPClient) acquire(req proto.Envelope) (*waiter, uint64, int, error) {
	c.pmu.Lock()
	var slot int
	if n := len(c.free); n > 0 {
		slot = int(c.free[n-1])
		c.free = c.free[:n-1]
	} else {
		if len(c.slots) >= maxInFlight {
			c.pmu.Unlock()
			return nil, 0, 0, fmt.Errorf("msgq: over %d requests in flight", maxInFlight)
		}
		slot = len(c.slots)
		c.slots = append(c.slots, &waiter{ch: make(chan waitResult, 1)})
	}
	w := c.slots[slot]
	w.gen++
	gen := w.gen
	w.req = req
	w.state.Store(waiterArmed)
	c.pmu.Unlock()
	return w, uint64(gen)<<32 | uint64(slot), slot, nil
}

// release returns a settled slot to the free list, dropping its request.
func (c *TCPClient) release(slot int, w *waiter) {
	c.pmu.Lock()
	w.req = proto.Envelope{}
	w.state.Store(waiterIdle)
	c.free = append(c.free, int32(slot))
	c.pmu.Unlock()
}

// collect blocks for the delivered result and recycles the slot. Safe only
// after the slot's state reached waiterDelivered: delivery sends exactly
// once after winning that CAS.
func (c *TCPClient) collect(slot int, w *waiter) (proto.Envelope, error) {
	res := <-w.ch
	c.release(slot, w)
	if res.err != nil {
		return proto.Envelope{}, res.err
	}
	return res.env, nil
}

// Request implements Client. The envelope's ID field is overwritten with a
// connection-unique slot-coded ID.
//
// The cancel/reply race is decided by one CAS on the waiter state: if the
// cancel wins, the request returns ctx.Err() and the in-flight reply is
// counted by LateReplies when it lands; if the reply wins, the request
// returns that reply even though the context fired. Both interleavings are
// deterministic — no reply is ever dropped without accounting.
func (c *TCPClient) Request(ctx context.Context, env proto.Envelope) (proto.Envelope, error) {
	if c.closed.Load() {
		return proto.Envelope{}, ErrClosed
	}
	if c.dead.Load() {
		return proto.Envelope{}, c.readErr()
	}
	w, id, slot, err := c.acquire(env)
	if err != nil {
		return proto.Envelope{}, err
	}
	if c.dead.Load() {
		// The read loop died around our acquisition. The error walker may
		// or may not have seen the armed slot; the CAS decides.
		if w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
			c.release(slot, w)
			return proto.Envelope{}, c.readErr()
		}
		return c.collect(slot, w)
	}

	env.ID = id
	c.wmu.Lock()
	b, err := proto.AppendFrame(c.scratch[:0], &env)
	if err == nil {
		if cap(b) <= maxPooledBuf {
			c.scratch = b[:0]
		} else {
			c.scratch = nil
		}
		_, err = c.conn.Write(b)
	}
	c.wmu.Unlock()
	if err != nil {
		if w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
			c.release(slot, w)
			return proto.Envelope{}, fmt.Errorf("msgq: send request: %w", err)
		}
		// The error walker beat us to the slot; surface its verdict.
		return c.collect(slot, w)
	}

	if ctx.Done() == nil {
		// Fast path for uncancellable requests: plain blocking receive,
		// no select machinery (mirrors the inproc inline path).
		return c.collect(slot, w)
	}
	select {
	case res := <-w.ch:
		c.release(slot, w)
		if res.err != nil {
			return proto.Envelope{}, res.err
		}
		return res.env, nil
	case <-ctx.Done():
		if w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
			c.release(slot, w)
			return proto.Envelope{}, ctx.Err()
		}
		// The reply won the CAS before our cancel: deliver it.
		return c.collect(slot, w)
	}
}

// Close implements Client.
func (c *TCPClient) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	return c.conn.Close()
}

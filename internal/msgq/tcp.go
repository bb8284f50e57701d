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
// proto.DecodeFrame) into sync.Pool-recycled buffers through a buffered
// reader, and decodes lazily: header fields are parsed in place, the JSON
// body is retained as a sub-slice of the pooled buffer — no second copy.
// The write path assembles the frame into a per-connection scratch buffer
// and issues a single conn.Write per message, with one JSON pass through
// the envelope's WireBody cache.
//
// Buffer ownership rules (see ARCHITECTURE.md Flow 8):
//   - Server side: the request buffer belongs to the transport. A handler
//     may read the request Body only until its reply frame has been
//     encoded; the buffer is recycled immediately after the reply write.
//   - Client side: reply bodies are copied out of the read buffer before
//     delivery, because the reply envelope escapes to the caller with no
//     lifetime bound.

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

// TCPServerOptions tunes a TCP server's per-connection dispatch.
type TCPServerOptions struct {
	// Workers bounds the handler goroutines per connection (default 8).
	// When every worker is busy and the queue is full, the connection's
	// read loop blocks — natural TCP backpressure — instead of spawning
	// a goroutine per request.
	Workers int
	// Inline serves requests on the connection's read loop itself: zero
	// dispatch overhead, but a blocking handler stalls the whole
	// connection. Only for handlers known not to block (mirroring the
	// inproc fast path for context-less requests).
	Inline bool
}

// TCPServer is a REQ/REP endpoint over real TCP sockets speaking binary
// proto frames. Multiple requests may be in flight on one connection;
// replies are matched to requests by envelope ID. Dispatch is
// connection-local: a bounded worker set per connection, or inline on the
// read loop when the handler is known not to block.
type TCPServer struct {
	ln      net.Listener
	handler Handler
	opts    TCPServerOptions

	mu     sync.Mutex
	closed bool
	conns  map[*tcpConn]struct{}
	wg     sync.WaitGroup

	dropped atomic.Uint64
}

// ListenTCP binds a REQ/REP server on addr ("host:port"; ":0" picks a free
// port) with default options.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	return ListenTCPOpts(addr, h, TCPServerOptions{})
}

// ListenTCPOpts binds a REQ/REP server on addr with explicit dispatch
// options.
func ListenTCPOpts(addr string, h Handler, opts TCPServerOptions) (*TCPServer, error) {
	if h == nil {
		return nil, fmt.Errorf("msgq: listen %s: nil handler", addr)
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msgq: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, opts: opts, conns: make(map[*tcpConn]struct{})}
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
		c := &tcpConn{srv: s, conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}
		if !s.opts.Inline {
			c.reqs = make(chan connReq, s.opts.Workers)
		}
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
// bounded worker set (or inline dispatch), and checked single-write
// replies behind a shared scratch buffer.
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

	reqs    chan connReq // nil in inline mode
	workers int          // owned by the read loop
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
		if c.reqs != nil {
			close(c.reqs) // workers drain the queue, then exit
		}
	}()
	// The interner is read-loop-local: header strings repeat per peer.
	in := proto.NewInterner()
	if c.srv.opts.Inline {
		var buf []byte
		for {
			payload, err := proto.ReadFramePayload(c.br, &buf)
			if err != nil {
				return // EOF on clean close; any error (incl. corrupt frame) tears the conn
			}
			env, err := proto.DecodeFrameInterned(payload, in)
			if err != nil {
				return
			}
			c.serve(env, nil) // buf is reused next iteration: reply already written
		}
	}
	for {
		buf := getBuf()
		payload, err := proto.ReadFramePayload(c.br, buf)
		if err != nil {
			putBuf(buf)
			return
		}
		env, err := proto.DecodeFrameInterned(payload, in)
		if err != nil {
			putBuf(buf)
			return
		}
		req := connReq{env: env, buf: buf}
		// Lazily grow the worker set: one worker as soon as there is any
		// work, more while the queue has depth, up to the bound. A full
		// queue blocks the read loop — backpressure, not goroutine spray.
		if c.workers == 0 || (len(c.reqs) > 0 && c.workers < c.srv.opts.Workers) {
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
		c.serve(req.env, req.buf)
	}
}

// serve runs the handler and writes the reply, then recycles the request
// buffer. The buffer is recycled only after the reply write: the handler
// or the reply envelope may alias the request Body (echo handlers), and
// the ownership contract extends exactly until the reply frame is encoded.
func (c *tcpConn) serve(env proto.Envelope, buf *[]byte) {
	reply := c.srv.handler(env)
	reply.ID = env.ID // replies are matched by request ID
	if err := c.writeFrame(&reply); err != nil {
		c.srv.dropped.Add(1)
	}
	if buf != nil {
		putBuf(buf)
	}
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

// Pending-reply table geometry: requests park in a lock-striped ring of
// reusable waiter slots instead of a map[uint64]chan behind one mutex. An
// envelope ID encodes generation | stripe | slot, so the read loop finds
// its waiter with one stripe lock and no map traffic, and slot reuse is
// detected by generation mismatch rather than ABA on the ID.
const (
	pendStripes    = 16   // concurrent requesters spread across this many locks
	slotsPerStripe = 4096 // in-flight bound: pendStripes × slotsPerStripe ≈ 65k requests
)

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
	gen   uint32          // bumped per acquisition; guarded by the stripe mutex
	ch    chan waitResult // buffered 1, reused across acquisitions
}

type waitResult struct {
	env proto.Envelope
	err error
}

// pendStripe is one lock's worth of waiter slots.
type pendStripe struct {
	mu    sync.Mutex
	slots []*waiter
	free  []int32
}

// TCPClient is a REQ/REP client over one TCP connection with an ID-matched
// reply mux, allowing concurrent Request calls. See the pending-reply
// table notes above for how replies find their requesters.
type TCPClient struct {
	conn net.Conn
	br   *bufio.Reader

	wmu     sync.Mutex // frame write serialization
	scratch []byte

	stripes [pendStripes]pendStripe
	rr      atomic.Uint32 // stripe rotation for acquisitions

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
// The dead flag is stored before the stripe walk and Request re-checks it
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
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		for _, w := range st.slots {
			if w.state.CompareAndSwap(waiterArmed, waiterDelivered) {
				w.ch <- waitResult{err: err}
			}
		}
		st.mu.Unlock()
	}
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
		c.deliver(env)
	}
}

// deliver routes one reply to its waiter, or counts it late. The CAS to
// waiterDelivered is the race decider: a concurrent cancel that lost it
// will collect this result instead of its context error.
func (c *TCPClient) deliver(env proto.Envelope) {
	gen := uint32(env.ID >> 32)
	si := int(env.ID>>16) & 0xffff
	slot := int(env.ID) & 0xffff
	if si >= pendStripes {
		c.late.Add(1)
		return
	}
	st := &c.stripes[si]
	st.mu.Lock()
	if slot >= len(st.slots) {
		st.mu.Unlock()
		c.late.Add(1)
		return
	}
	w := st.slots[slot]
	if w.gen != gen || !w.state.CompareAndSwap(waiterArmed, waiterDelivered) {
		st.mu.Unlock()
		c.late.Add(1)
		return
	}
	st.mu.Unlock()
	if env.Body != nil {
		// The only copy on the reply path: the envelope escapes to the
		// requester with no lifetime bound, while the read buffer is
		// reused for the very next frame.
		env.Body = append([]byte(nil), env.Body...)
	}
	w.ch <- waitResult{env: env} // buffered; the slot is not recycled until received
}

// acquire arms a waiter slot and returns it with its wire ID.
func (c *TCPClient) acquire() (*waiter, uint64, int, int, error) {
	si := int(c.rr.Add(1)) % pendStripes
	st := &c.stripes[si]
	st.mu.Lock()
	var slot int
	if n := len(st.free); n > 0 {
		slot = int(st.free[n-1])
		st.free = st.free[:n-1]
	} else {
		if len(st.slots) >= slotsPerStripe {
			st.mu.Unlock()
			return nil, 0, 0, 0, fmt.Errorf("msgq: over %d requests in flight", pendStripes*slotsPerStripe)
		}
		slot = len(st.slots)
		st.slots = append(st.slots, &waiter{ch: make(chan waitResult, 1)})
	}
	w := st.slots[slot]
	w.gen++
	gen := w.gen
	w.state.Store(waiterArmed)
	st.mu.Unlock()
	return w, uint64(gen)<<32 | uint64(si)<<16 | uint64(slot), si, slot, nil
}

// release returns a settled slot to its stripe's free list.
func (c *TCPClient) release(si, slot int, w *waiter) {
	st := &c.stripes[si]
	st.mu.Lock()
	w.state.Store(waiterIdle)
	st.free = append(st.free, int32(slot))
	st.mu.Unlock()
}

// collect blocks for the delivered result and recycles the slot. Safe only
// after the slot's state reached waiterDelivered: delivery sends exactly
// once after winning that CAS.
func (c *TCPClient) collect(si, slot int, w *waiter) (proto.Envelope, error) {
	res := <-w.ch
	c.release(si, slot, w)
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
	w, id, si, slot, err := c.acquire()
	if err != nil {
		return proto.Envelope{}, err
	}
	if c.dead.Load() {
		// The read loop died around our acquisition. The error walker may
		// or may not have seen the armed slot; the CAS decides.
		if w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
			c.release(si, slot, w)
			return proto.Envelope{}, c.readErr()
		}
		return c.collect(si, slot, w)
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
			c.release(si, slot, w)
			return proto.Envelope{}, fmt.Errorf("msgq: send request: %w", err)
		}
		// The error walker beat us to the slot; surface its verdict.
		return c.collect(si, slot, w)
	}

	if ctx.Done() == nil {
		// Fast path for uncancellable requests: plain blocking receive,
		// no select machinery (mirrors the inproc inline path).
		return c.collect(si, slot, w)
	}
	select {
	case res := <-w.ch:
		c.release(si, slot, w)
		if res.err != nil {
			return proto.Envelope{}, res.err
		}
		return res.env, nil
	case <-ctx.Done():
		if w.state.CompareAndSwap(waiterArmed, waiterCancelled) {
			c.release(si, slot, w)
			return proto.Envelope{}, ctx.Err()
		}
		// The reply won the CAS before our cancel: deliver it.
		return c.collect(si, slot, w)
	}
}

// Close implements Client.
func (c *TCPClient) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	return c.conn.Close()
}

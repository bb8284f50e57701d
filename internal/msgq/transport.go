package msgq

import (
	"fmt"
	"strings"
)

// Transport names selectable via Network.SetTransport. The network's
// transport is the one place a process chooses: a pilot
// agent in its own OS process sets TransportTCP, everything else binds on
// the inproc default.
const (
	// transportInproc is the default in-process transport with modelled
	// link latency on the session clock.
	transportInproc = "inproc"
	// TransportTCP binds endpoints on real loopback TCP sockets speaking
	// binary proto frames. Latency is whatever the kernel provides — the
	// session's link model does not apply — which is the point: it is the
	// transport for genuinely multi-process sessions.
	TransportTCP = "tcp"
)

// tcpScheme prefixes dialable TCP endpoint addresses ("tcp://host:port").
// Server.Addr of a TCP bind returns this form, so an address published in
// an endpoint registry is dialable from any process.
const tcpScheme = "tcp://"

// validTransport reports whether name is a known transport selector. The
// empty string is valid and means "the network's default".
func validTransport(name string) bool {
	switch name {
	case "", transportInproc, TransportTCP:
		return true
	}
	return false
}

// SetTransport selects the transport Bind registers servers on. The zero
// value is transportInproc. Unknown names are rejected.
func (n *Network) SetTransport(name string) error {
	if !validTransport(name) {
		return fmt.Errorf("msgq: unknown transport %q", name)
	}
	n.mu.Lock()
	n.transport = name
	n.mu.Unlock()
	return nil
}

// Bind registers a REQ/REP server at the logical address addr on the
// network's transport (SetTransport). On transportInproc the server lives
// in this process. On TransportTCP it listens on a real loopback socket;
// its Addr() returns the dialable "tcp://host:port" form, and the logical
// address is registered so same-process Dial(addr) still works.
func (n *Network) Bind(addr string, h Handler) (Server, error) {
	n.mu.Lock()
	transport, closed := n.transport, n.closed
	n.mu.Unlock()
	if transport != TransportTCP {
		return n.bindInproc(addr, h)
	}
	if closed {
		return nil, ErrClosed
	}
	srv, err := ListenTCPOpts("127.0.0.1:0", h, TCPServerOptions{})
	if err != nil {
		return nil, err
	}
	b := &tcpBind{n: n, addr: addr, srv: srv}
	if _, loaded := n.tcpBinds.LoadOrStore(addr, b); loaded {
		_ = srv.Close()
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	return b, nil
}

// Dial connects a client at address from to the server bound at to. The
// target transport is inferred from the address: a "tcp://host:port"
// address dials the socket directly (any process), a logical address bound
// locally over TCP dials its socket, and anything else takes the in-process
// path with its dial-time link resolution.
func (n *Network) Dial(from, to string) (Client, error) {
	if real, ok := strings.CutPrefix(to, tcpScheme); ok {
		return DialTCP(real)
	}
	if v, ok := n.tcpBinds.Load(to); ok {
		return DialTCP(v.(*tcpBind).srv.Addr())
	}
	return n.dialInproc(from, to)
}

// tcpBind pairs a logical network address with its TCP listener, so the
// endpoint is reachable both by logical name (same process) and by socket
// address (any process).
type tcpBind struct {
	n    *Network
	addr string // logical address as passed to Bind
	srv  *TCPServer
}

// Addr implements Server, returning the dialable socket form.
func (b *tcpBind) Addr() string { return tcpScheme + b.srv.Addr() }

// Close implements Server.
func (b *tcpBind) Close() error {
	b.n.tcpBinds.CompareAndDelete(b.addr, b)
	return b.srv.Close()
}

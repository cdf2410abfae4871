package orb

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

// Invoker sends a request to an object and waits for the reply. The ORB
// facade, the Loopback, and test fakes all implement it. arg is the caller's
// again once Invoke returns — a stub encodes into a pooled encoder and puts it
// back — so an implementation must not read it afterwards, and the reply must
// not alias it.
type Invoker interface {
	Invoke(ref ObjectRef, op string, arg []byte) ([]byte, error)
}

// Client invokes objects on remote TCP ORB servers. A call has a connection
// to itself for as long as it lasts: it takes the most recently used idle
// connection to the endpoint (or dials one), writes its request and reads its
// own reply on the caller's goroutine, and gives the connection back. The
// client starts no goroutine, and concurrent callers ride separate
// connections, so nothing on a connection can wait behind another call.
// It is safe for concurrent use.
//
// Every call runs under a per-call budget (WithCallTimeout): the budget
// bounds the dial and, as one socket deadline, the write and the reply read,
// so a hung peer can never block Invoke indefinitely — it costs one budget
// and its connection. A call is made once: recovery from a refused or lost
// call belongs to the protocol that made it, not to the transport.
type Client struct {
	dialTimeout time.Duration
	callTimeout time.Duration

	// mu guards idle, conns, closed and interceptor. A connection itself
	// needs no lock: between take and give exactly one call owns it.
	mu sync.Mutex
	// idle holds, per endpoint address, the connections no call is using,
	// most recently used last.
	idle map[string][]*clientConn
	// conns is every open connection, idle or in a call, so Close can cut
	// off a call blocked on its reply.
	conns       map[*clientConn]struct{}
	closed      bool
	interceptor Interceptor
}

// maxIdleConns bounds the idle connections kept per endpoint. A burst may
// open any number at once; the surplus is closed as its calls return.
const maxIdleConns = 8

var _ Invoker = (*Client)(nil)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithCallTimeout sets the per-invocation budget (default 30s). The budget
// covers the write and the reply read of the call.
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.callTimeout = d }
}

// NewClient returns a Client ready to invoke.
func NewClient(opts ...ClientOption) *Client {
	c := &Client{
		dialTimeout: 5 * time.Second,
		callTimeout: 30 * time.Second,
		idle:        make(map[string][]*clientConn),
		conns:       make(map[*clientConn]struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// SetInterceptor installs (or clears, with nil) the fault-injection hook
// consulted once per call.
func (c *Client) SetInterceptor(ic Interceptor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interceptor = ic
}

// Invoke implements Invoker for tcp references. The call is routed through
// the interceptor when one is installed. An interceptor may deliver after
// Invoke has returned and the caller reuses arg (a delay, a duplicate), so it
// and every delivery read one copy, taken now; without one the caller's
// buffer is written as it is.
func (c *Client) Invoke(ref ObjectRef, op string, arg []byte) ([]byte, error) {
	if ref.Endpoint.Net != NetTCP {
		return nil, Errorf(CodeTransport, "client cannot reach %s endpoint %s", ref.Endpoint.Net, ref.Endpoint)
	}
	c.mu.Lock()
	ic := c.interceptor
	c.mu.Unlock()
	if ic == nil {
		return c.exchange(ref, op, arg)
	}
	arg = append([]byte(nil), arg...)
	next := func() ([]byte, error) { return c.exchange(ref, op, arg) }
	return ic.Intercept(ref.Endpoint, ref.Key, op, arg, next)
}

// exchange performs one request/reply exchange on a connection of its own.
// A kept connection may have gone stale while it sat idle (the server
// restarted, or closed it): when one fails with a transport error on the
// first attempt, every idle connection to the endpoint is as old or older,
// so all are closed and the call re-dials once.
func (c *Client) exchange(ref ObjectRef, op string, arg []byte) ([]byte, error) {
	addr := ref.Endpoint.Addr
	for attempt := 0; ; attempt++ {
		cc, err := c.take(addr)
		kept := cc != nil
		if err == nil && !kept {
			cc, err = c.dial(addr)
		}
		if err != nil {
			return nil, err
		}
		reply, inStep, err := cc.call(ref.Key, op, arg, c.callTimeout)
		c.give(addr, cc, inStep)
		if kept && !inStep && attempt == 0 && IsCode(err, CodeTransport) {
			c.closeIdle(addr)
			continue
		}
		return reply, err
	}
}

// Close closes every connection, failing the calls still waiting on one with
// a transport error, and fails every later call.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns, c.idle = nil, nil
	c.mu.Unlock()
	for cc := range conns {
		_ = cc.conn.Close()
	}
}

var errClientClosed = Errorf(CodeTransport, "client closed")

// take returns the most recently used idle connection to addr, or nil when
// there is none.
func (c *Client) take(addr string) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	idle := c.idle[addr]
	n := len(idle)
	if n == 0 {
		return nil, nil
	}
	cc := idle[n-1]
	idle[n-1] = nil
	c.idle[addr] = idle[:n-1]
	return cc, nil
}

// dial opens a new connection to addr, owned by the calling call.
func (c *Client) dial(addr string) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout)
	if err != nil {
		if isDeadlineErr(err) {
			return nil, Errorf(CodeTimeout, "dial %s: %v", addr, err)
		}
		return nil, Errorf(CodeTransport, "dial %s: %v", addr, err)
	}
	cc := &clientConn{conn: conn, reader: bufio.NewReader(conn)}
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.conns[cc] = struct{}{}
	}
	c.mu.Unlock()
	if closed {
		_ = conn.Close()
		return nil, errClientClosed
	}
	return cc, nil
}

// give ends a call's ownership of cc. The connection goes back on the idle
// stack when keep is set and there is room; otherwise it is closed.
func (c *Client) give(addr string, cc *clientConn, keep bool) {
	c.mu.Lock()
	idle := c.idle[addr]
	keep = keep && !c.closed && len(idle) < maxIdleConns
	if keep {
		c.idle[addr] = append(idle, cc)
	} else {
		delete(c.conns, cc)
	}
	c.mu.Unlock()
	if !keep {
		_ = cc.conn.Close()
	}
}

// closeIdle closes every idle connection to addr.
func (c *Client) closeIdle(addr string) {
	c.mu.Lock()
	idle := c.idle[addr]
	delete(c.idle, addr)
	for _, cc := range idle {
		delete(c.conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range idle {
		_ = cc.conn.Close()
	}
}

// isDeadlineErr reports whether err stems from an expired socket deadline.
//
//lint:coldpath classifies a failed exchange, not the steady-state call path
func isDeadlineErr(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// clientConn is one connection to a server, used by one call at a time.
type clientConn struct {
	conn   net.Conn
	reader *bufio.Reader
	nextID uint64
}

// call sends one request and reads its reply, all on the caller's goroutine
// and under one socket deadline of budget. inStep reports whether the
// connection may carry another call: the peer answered this request — with a
// reply or an error frame — and nothing else. After a timeout, a transport
// failure or a frame that is not this call's reply it may not, since a late
// reply could still arrive on it and be read by the next caller.
//
//lint:hotpath alloc=8 locks=0
func (cc *clientConn) call(key, op string, arg []byte, budget time.Duration) (reply []byte, inStep bool, err error) {
	cc.nextID++
	id := cc.nextID
	_ = cc.conn.SetDeadline(time.Now().Add(budget))

	err = writeFrame(cc.conn, &frame{kind: msgRequest, reqID: id, key: key, op: op, body: arg})
	if err != nil {
		if isDeadlineErr(err) {
			return nil, false, Errorf(CodeTimeout, "send %s.%s: write deadline exceeded after %v", key, op, budget)
		}
		return nil, false, Errorf(CodeTransport, "send: %v", err)
	}

	f, err := readFrame(cc.reader)
	if err != nil {
		if isDeadlineErr(err) {
			return nil, false, Errorf(CodeTimeout, "%s.%s timed out after %v", key, op, budget)
		}
		return nil, false, Errorf(CodeTransport, "connection lost awaiting reply: %v", err)
	}
	defer putFrame(f)
	switch {
	case f.reqID != id || f.kind == msgRequest:
		return nil, false, Errorf(CodeTransport, "out-of-step frame (kind %d, id %d) awaiting reply %d", f.kind, f.reqID, id)
	case f.kind == msgError:
		return nil, true, &RemoteError{Code: f.code, Msg: f.msg} //lint:alloc error reply
	}
	return f.detachBody(), true, nil
}

package orb

import (
	"log/slog"
	"net"
)

// ORB is the facade components hold: it routes invocations to the right
// transport (loopback or TCP) and creates servers.
type ORB struct {
	loopback *Loopback
	client   *Client
	log      *slog.Logger
}

var _ Invoker = (*ORB)(nil)

// Option configures an ORB.
type Option func(*ORB)

// WithLogger sets the ORB's logger (default: discard).
func WithLogger(log *slog.Logger) Option {
	return func(o *ORB) { o.log = log }
}

// New returns an ORB with a fresh loopback registry and TCP client pool.
func New(opts ...Option) *ORB {
	o := &ORB{
		loopback: NewLoopback(),
		client:   NewClient(),
		log:      discardLogger(),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Loopback exposes the in-process transport (for binding simulated servers
// and installing fault policies).
func (o *ORB) Loopback() *Loopback { return o.loopback }

// SetInterceptor installs (or clears, with nil) one fault-injection hook on
// both transports, so a chaos engine sees every invocation the ORB routes.
func (o *ORB) SetInterceptor(ic Interceptor) {
	o.loopback.SetInterceptor(ic)
	o.client.SetInterceptor(ic)
}

// Invoke implements Invoker, routing by the reference's transport.
func (o *ORB) Invoke(ref ObjectRef, op string, arg []byte) ([]byte, error) {
	switch ref.Endpoint.Net {
	case NetLoopback:
		return o.loopback.Invoke(ref, op, arg)
	case NetTCP:
		return o.client.Invoke(ref, op, arg)
	default:
		return nil, Errorf(CodeTransport, "unknown transport %q", ref.Endpoint.Net)
	}
}

// ListenTCP starts a TCP server on addr (e.g. "127.0.0.1:0") dispatching to
// adapter. The returned server is already accepting.
func (o *ORB) ListenTCP(addr string, adapter *Adapter) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(ln, adapter, o.log)
	srv.Start()
	return srv, nil
}

// BindLoopback registers adapter on the in-process transport and returns a
// reference factory endpoint.
func (o *ORB) BindLoopback(name string, adapter *Adapter) (Endpoint, error) {
	return o.loopback.Bind(name, adapter)
}

// Close releases client connections. Servers are closed individually.
func (o *ORB) Close() {
	o.client.Close()
}

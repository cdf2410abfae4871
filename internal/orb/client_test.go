package orb

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/testutil/leak"
)

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	count atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.count.Add(1)
	}
	return c, err
}

// serveCounted serves a on addr behind a counting listener.
func serveCounted(t *testing.T, addr string, a *Adapter) (*Server, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := NewServer(cl, a, nil)
	srv.Start()
	return srv, cl
}

// connCount is the number of connections the server is serving.
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// closeConns closes every connection from the server's side, as a peer that
// reaps idle connections would, and waits for their goroutines to notice.
func (s *Server) closeConns(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	waitFor(t, "server connections to end", func() bool { return s.connCount() == 0 })
}

// connCounts is the client's open and idle connection counts.
func (c *Client) connCounts(addr string) (open, idle int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns), len(c.idle[addr])
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// burst puts n calls inside the gate's servant at once — so on n connections
// — and lets them all return.
func burst(t *testing.T, c *Client, ref ObjectRef, g *gateServant, n int) {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Invoke(ref, "block", nil)
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-g.entered
	}
	for i := 0; i < n; i++ {
		g.release <- struct{}{}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("block: %v", err)
		}
	}
}

// clientGoroutines counts the goroutines running client code.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "orb.(*Client)") || strings.Contains(g, "orb.(*clientConn)") {
			n++
		}
	}
	return n
}

// TestClientBurstKeepsBoundedIdleConns: a burst as wide as 64 rides 64
// connections, and once it is over the client holds at most maxIdleConns of
// them and runs no goroutine of its own.
func TestClientBurstKeepsBoundedIdleConns(t *testing.T) {
	const width = 64
	g := newGateServant(width)
	srv, accepts := serveCounted(t, "127.0.0.1:0", gateAdapter(t, g))
	c := NewClient()
	ref := srv.Ref("gate")

	burst(t, c, ref, g, width)
	if got := accepts.count.Load(); got != width {
		t.Fatalf("server accepted %d connections for %d concurrent calls", got, width)
	}
	if open, idle := c.connCounts(ref.Endpoint.Addr); open != maxIdleConns || idle != maxIdleConns {
		t.Fatalf("after the burst the client holds %d connections, %d idle; want %d and %d", open, idle, maxIdleConns, maxIdleConns)
	}
	waitFor(t, "the server to see the surplus connections closed", func() bool { return srv.connCount() == maxIdleConns })
	if n := clientGoroutines(); n != 0 {
		t.Fatalf("%d client goroutines with no call in progress", n)
	}
	// The kept ones still work, and no call opens another.
	for i := 0; i < 2*maxIdleConns; i++ {
		if _, err := c.Invoke(ref, "who", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := accepts.count.Load(); got != width {
		t.Fatalf("sequential calls after the burst opened %d more connections", got-width)
	}

	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	leak.VerifyNone(t)
}

// TestClientTimeoutClosesConnection: a call that times out takes its
// connection with it, so its late reply can never be read by the next caller.
func TestClientTimeoutClosesConnection(t *testing.T) {
	a := NewAdapter()
	mux := NewOpMux().Handle("work", func(_ string, req *Decoder) (*Encoder, error) {
		nonce, delay := req.U64(), req.Duration()
		if err := req.Err(); err != nil {
			return nil, err
		}
		time.Sleep(delay)
		e := GetEncoder()
		e.PutU64(nonce)
		return e, nil
	})
	if err := a.Register("work", mux); err != nil {
		t.Fatal(err)
	}
	srv, accepts := serveCounted(t, "127.0.0.1:0", a)
	defer srv.Close()
	c := NewClient(WithCallTimeout(100 * time.Millisecond))
	defer c.Close()
	ref := srv.Ref("work")

	work := func(nonce uint64, delay time.Duration) (uint64, error) {
		var e Encoder
		e.PutU64(nonce)
		e.PutDuration(delay)
		reply, err := c.Invoke(ref, "work", e.Bytes())
		if err != nil {
			return 0, err
		}
		return NewDecoder(reply).U64(), nil
	}

	if _, err := work(1, 0); err != nil { // the slow call rides a kept connection
		t.Fatal(err)
	}
	if _, err := work(2, 300*time.Millisecond); !IsCode(err, CodeTimeout) {
		t.Fatalf("slow call: err = %v, want timeout", err)
	}
	if open, _ := c.connCounts(ref.Endpoint.Addr); open != 0 {
		t.Fatalf("client still holds %d connections after its only call timed out", open)
	}
	// Reply 2 is written while these run; none of them may see it.
	for nonce := uint64(3); nonce < 40; nonce++ {
		got, err := work(nonce, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("call %d: %v", nonce, err)
		}
		if got != nonce {
			t.Fatalf("call %d read the reply to call %d", nonce, got)
		}
	}
	if got := accepts.count.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2 (one lost to the timeout)", got)
	}
}

// TestClientOutOfStepPeer: a peer that answers with another call's id, or
// with a request, fails the call with a transport error and the connection
// is not used again.
func TestClientOutOfStepPeer(t *testing.T) {
	cases := []struct {
		name   string
		answer func(req *frame) *frame
	}{
		{"wrong reqID", func(req *frame) *frame { return &frame{kind: msgReply, reqID: req.reqID + 1} }},
		{"request frame", func(req *frame) *frame { return &frame{kind: msgRequest, reqID: req.reqID, key: "k", op: "op"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var accepted atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					accepted.Add(1)
					// The client hangs up after the first answer, so one
					// connection at a time is all there is to serve.
					r := bufio.NewReader(conn)
					var (
						in  []byte
						out Encoder
					)
					for {
						var req frame
						if err := readFrame(r, &in, &req, nil); err != nil {
							break
						}
						if err := writeFrame(conn, &out, tc.answer(&req)); err != nil {
							break
						}
					}
					_ = conn.Close()
				}
			}()

			c := NewClient(WithCallTimeout(2 * time.Second))
			ref := ObjectRef{Endpoint: Endpoint{Net: NetTCP, Addr: ln.Addr().String()}, Key: "k"}
			for call := int64(1); call <= 2; call++ {
				if _, err := c.Invoke(ref, "op", nil); !IsCode(err, CodeTransport) {
					t.Fatalf("call %d: err = %v, want a transport error", call, err)
				}
				if open, idle := c.connCounts(ref.Endpoint.Addr); open != 0 || idle != 0 {
					t.Fatalf("call %d left %d connections open, %d idle", call, open, idle)
				}
				if got := accepted.Load(); got != call {
					t.Fatalf("after call %d the peer has accepted %d connections", call, got)
				}
			}
			c.Close()
			ln.Close()
			<-done
		})
	}
}

// TestClientStaleIdleConnections: when the server has closed the client's
// idle connections — one by one, or by restarting — the next call costs one
// new connection, and the stale ones are all dropped with the first.
func TestClientStaleIdleConnections(t *testing.T) {
	const kept = 4
	g := newGateServant(kept)
	a := gateAdapter(t, g)
	srv, accepts := serveCounted(t, "127.0.0.1:0", a)
	addr := srv.Endpoint().Addr
	ref := srv.Ref("gate")
	c := NewClient()
	defer c.Close()

	expectOneRedial := func(accepts *countingListener, before int64) {
		t.Helper()
		if _, idle := c.connCounts(addr); idle != kept {
			t.Fatalf("client has %d idle connections, want %d", idle, kept)
		}
		if _, err := c.Invoke(ref, "who", nil); err != nil {
			t.Fatalf("call over stale connections: %v", err)
		}
		if got := accepts.count.Load() - before; got != 1 {
			t.Fatalf("call over stale connections opened %d connections, want 1", got)
		}
		if open, idle := c.connCounts(addr); open != 1 || idle != 1 {
			t.Fatalf("client holds %d connections, %d idle, want only the new one", open, idle)
		}
	}

	burst(t, c, ref, g, kept)
	srv.closeConns(t)
	expectOneRedial(accepts, kept)

	burst(t, c, ref, g, kept)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	accepts2 := &countingListener{Listener: ln}
	srv2 := NewServer(accepts2, a, nil)
	srv2.Start()
	defer srv2.Close()
	expectOneRedial(accepts2, 0)
}

// TestClientCloseFailsBlockedCall: Close cuts off a call that is waiting for
// its reply, and the call is not tried again on a new connection.
func TestClientCloseFailsBlockedCall(t *testing.T) {
	g := newGateServant(1)
	srv, accepts := serveCounted(t, "127.0.0.1:0", gateAdapter(t, g))
	defer srv.Close()
	c := NewClient()
	ref := srv.Ref("gate")

	if _, err := c.Invoke(ref, "who", nil); err != nil { // the blocked call rides a kept connection
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke(ref, "block", nil)
		done <- err
	}()
	<-g.entered
	c.Close()
	select {
	case err := <-done:
		if !IsCode(err, CodeTransport) {
			t.Fatalf("blocked call: err = %v, want a transport error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not fail the call blocked in its servant")
	}
	close(g.release)
	if _, err := c.Invoke(ref, "who", nil); !IsCode(err, CodeTransport) {
		t.Fatalf("call on a closed client: err = %v, want a transport error", err)
	}
	if got := accepts.count.Load(); got != 1 {
		t.Fatalf("server accepted %d connections, want 1", got)
	}
}

func TestRemoteErrorIsDeadlineExceeded(t *testing.T) {
	if !errors.Is(Errorf(CodeTimeout, "slow"), context.DeadlineExceeded) {
		t.Error("timeout error should match context.DeadlineExceeded")
	}
	if errors.Is(Errorf(CodeTransport, "down"), context.DeadlineExceeded) {
		t.Error("transport error must not match context.DeadlineExceeded")
	}
}

// TestClientHungPeerDeadlines: a peer that accepts the connection but never
// replies must not wedge Invoke or poison the pool.
func TestClientHungPeerDeadlines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			// Swallow bytes forever, never reply.
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()

	c := NewClient(WithCallTimeout(100 * time.Millisecond))
	defer c.Close()
	ref := ObjectRef{Endpoint: Endpoint{Net: NetTCP, Addr: ln.Addr().String()}, Key: "obj"}

	start := time.Now()
	_, err = c.Invoke(ref, "op", nil)
	if !IsCode(err, CodeTimeout) {
		t.Fatalf("hung peer error = %v, want timeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout does not match context.DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Invoke blocked %v on a hung peer", elapsed)
	}

	// The wedged connection saw no frames for a full budget, so it must have
	// been evicted: the next call dials afresh rather than reusing it.
	if _, err := c.Invoke(ref, "op", nil); !IsCode(err, CodeTimeout) {
		t.Fatalf("second call error = %v", err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("accepted connections = %d, want 2 (evict + redial)", got)
	}
	ln.Close()
	<-done
}

// TestLoopbackInterceptorSharedPath verifies the promoted hook: the same
// Interceptor drives loopback delivery, including zero-delivery (drop) and
// double-delivery (duplicate) shapes.
func TestLoopbackInterceptorSharedPath(t *testing.T) {
	o := New()
	a := NewAdapter()
	var calls atomic.Int64
	mux := NewOpMux().Handle("ping", func(string, *Decoder) (*Encoder, error) {
		calls.Add(1)
		return &Encoder{}, nil
	})
	if err := a.Register("obj", mux); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("svc", a)
	if err != nil {
		t.Fatal(err)
	}
	ref := ObjectRef{Endpoint: ep, Key: "obj"}

	drop := &flakyInterceptor{}
	drop.remaining.Store(1)
	o.SetInterceptor(drop)
	if _, err := o.Invoke(ref, "ping", nil); !IsCode(err, CodeTransport) {
		t.Fatalf("dropped call = %v", err)
	}
	if calls.Load() != 0 {
		t.Fatal("dropped message still reached servant")
	}
	if _, err := o.Invoke(ref, "ping", nil); err != nil {
		t.Fatalf("healed call: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("servant calls = %d", calls.Load())
	}

	// A duplicating interceptor delivers twice; the caller sees one reply.
	o.SetInterceptor(interceptorFunc(func(_ Endpoint, _, _ string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
		reply, err := next()
		_, _ = next() // duplicate delivery, reply discarded
		return reply, err
	}))
	if _, err := o.Invoke(ref, "ping", nil); err != nil {
		t.Fatalf("duplicated call: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("servant calls after duplicate = %d, want 3", calls.Load())
	}

	// Clearing restores plain delivery.
	o.SetInterceptor(nil)
	if _, err := o.Invoke(ref, "ping", nil); err != nil {
		t.Fatalf("plain call: %v", err)
	}
}

// interceptorFunc adapts a function to the Interceptor interface in tests.
type interceptorFunc func(Endpoint, string, string, []byte, func() ([]byte, error)) ([]byte, error)

func (f interceptorFunc) Intercept(target Endpoint, key, op string, arg []byte, next func() ([]byte, error)) ([]byte, error) {
	return f(target, key, op, arg, next)
}

// flakyInterceptor fails the first n delivery attempts with a transport
// error, then delegates to real delivery.
type flakyInterceptor struct {
	remaining atomic.Int64
}

func (f *flakyInterceptor) Intercept(_ Endpoint, _, _ string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, Errorf(CodeTransport, "injected loss")
	}
	return next()
}

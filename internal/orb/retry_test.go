package orb

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{Errorf(CodeTransport, "conn reset"), true},
		{Errorf(CodeTimeout, "deadline"), true},
		{Errorf(CodeApplication, "servant said no"), false},
		{Errorf(CodeObjectNotExist, "gone"), false},
		{Errorf(CodeBadOperation, "nope"), false},
		{Errorf(CodeMarshal, "garbage"), false},
		{errors.New("plain"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
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

func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := BackoffPolicy{Base: 50 * time.Millisecond, Cap: 2 * time.Second}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := p.Delay("host:1", "op", attempt)
		d2 := p.Delay("host:1", "op", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		if d1 > p.Cap {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d1, p.Cap)
		}
		if d1 <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d1)
		}
		// Jittered exponential growth: each delay stays within [0.5, 1.0) of
		// the un-jittered ladder, so after a doubling it cannot shrink below
		// half the previous ceiling.
		_ = prev
		prev = d1
	}
	// Different call identities get different jitter (with overwhelming
	// probability for these fixed inputs).
	if p.Delay("host:1", "op", 3) == p.Delay("host:2", "op", 3) &&
		p.Delay("host:1", "op", 4) == p.Delay("host:2", "op", 4) {
		t.Error("jitter does not vary with endpoint")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := newBreakerSet(BreakerPolicy{Threshold: 3, Cooldown: 10 * time.Second}, clock)

	fail := Errorf(CodeTransport, "down")
	const addr = "n1:9000"

	// Closed: calls flow, failures accumulate.
	for i := 0; i < 2; i++ {
		if !s.allow(addr) {
			t.Fatalf("closed breaker denied call %d", i)
		}
		s.record(addr, fail)
	}
	if got := s.stateOf(addr); got != "closed" {
		t.Fatalf("state after 2 failures = %s", got)
	}
	s.record(addr, fail) // third consecutive failure opens
	if got := s.stateOf(addr); got != "open" {
		t.Fatalf("state after threshold = %s", got)
	}
	if s.allow(addr) {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	// After the cooldown one probe is admitted; concurrent calls still fail
	// fast until the probe resolves.
	now = now.Add(11 * time.Second)
	if !s.allow(addr) {
		t.Fatal("no probe admitted after cooldown")
	}
	if s.stateOf(addr) != "half-open" {
		t.Fatalf("state during probe = %s", s.stateOf(addr))
	}
	if s.allow(addr) {
		t.Fatal("second probe admitted while first in flight")
	}

	// Failed probe re-opens for a fresh cooldown.
	s.record(addr, fail)
	if s.stateOf(addr) != "open" {
		t.Fatalf("state after failed probe = %s", s.stateOf(addr))
	}
	now = now.Add(11 * time.Second)
	if !s.allow(addr) {
		t.Fatal("no probe after second cooldown")
	}
	// Successful probe closes the circuit and resets the streak.
	s.record(addr, nil)
	if s.stateOf(addr) != "closed" {
		t.Fatalf("state after successful probe = %s", s.stateOf(addr))
	}
	if !s.allow(addr) {
		t.Fatal("closed breaker denied call")
	}

	// Application errors prove reachability: they reset the streak.
	s.record(addr, fail)
	s.record(addr, fail)
	s.record(addr, Errorf(CodeApplication, "servant error"))
	s.record(addr, fail)
	s.record(addr, fail)
	if s.stateOf(addr) != "closed" {
		t.Fatal("app error did not reset the failure streak")
	}
}

// flakyInterceptor fails the first n delivery attempts with a transport
// error, then delegates to real delivery.
type flakyInterceptor struct {
	remaining atomic.Int64
	attempts  atomic.Int64
}

func (f *flakyInterceptor) Intercept(_ Endpoint, _, _ string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
	f.attempts.Add(1)
	if f.remaining.Add(-1) >= 0 {
		return nil, Errorf(CodeTransport, "injected loss")
	}
	return next()
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var slept []time.Duration
	o := New(WithClientOptions(
		WithRetries(3),
		WithBackoff(BackoffPolicy{Base: time.Millisecond, Cap: 4 * time.Millisecond}),
	))
	o.client.sleep = func(d time.Duration) { slept = append(slept, d) }
	defer o.Close()

	a := NewAdapter()
	if err := a.Register("calc", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	flaky := &flakyInterceptor{}
	flaky.remaining.Store(2)
	o.SetInterceptor(flaky)

	reply, err := o.Invoke(srv.Ref("calc"), "echo", encodeString("persist"))
	if err != nil {
		t.Fatalf("Invoke with retries: %v", err)
	}
	if got := NewDecoder(reply).String(); got != "persist" {
		t.Fatalf("echo = %q", got)
	}
	if got := flaky.attempts.Load(); got != 3 {
		t.Fatalf("delivery attempts = %d, want 3", got)
	}
	if len(slept) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2", len(slept))
	}
	for i, d := range slept {
		if d <= 0 || d > 4*time.Millisecond {
			t.Fatalf("sleep %d = %v outside policy bounds", i, d)
		}
	}

	// Terminal errors are not retried.
	flaky.attempts.Store(0)
	if _, err := o.Invoke(srv.Ref("calc"), "fail", nil); !IsCode(err, CodeApplication) {
		t.Fatalf("app error = %v", err)
	}
	if got := flaky.attempts.Load(); got != 1 {
		t.Fatalf("app error retried: %d attempts", got)
	}

	// Retries exhausted: the last transport error surfaces.
	flaky.remaining.Store(1 << 30)
	flaky.attempts.Store(0)
	if _, err := o.Invoke(srv.Ref("calc"), "echo", encodeString("x")); !IsCode(err, CodeTransport) {
		t.Fatalf("exhausted retries = %v", err)
	}
	if got := flaky.attempts.Load(); got != 4 {
		t.Fatalf("attempts with 3 retries = %d, want 4", got)
	}
}

func TestClientBreakerFailsFastAndRecovers(t *testing.T) {
	o := New(WithClientOptions(
		WithCallTimeout(2*time.Second),
		WithBreaker(BreakerPolicy{Threshold: 2, Cooldown: 50 * time.Millisecond}),
	))
	defer o.Close()

	a := NewAdapter()
	if err := a.Register("calc", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Ref("calc")
	addr := ref.Endpoint.Addr

	drop := &flakyInterceptor{}
	drop.remaining.Store(1 << 30)
	o.SetInterceptor(drop)

	// Two consecutive transport failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := o.Invoke(ref, "echo", encodeString("x")); !IsCode(err, CodeTransport) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := o.client.BreakerState(addr); got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}
	// While open, calls fail fast without touching the transport.
	before := drop.attempts.Load()
	if _, err := o.Invoke(ref, "echo", encodeString("x")); !IsCode(err, CodeTransport) {
		t.Fatalf("open-circuit call: %v", err)
	}
	if drop.attempts.Load() != before {
		t.Fatal("open circuit still attempted delivery")
	}

	// Heal the network; after the cooldown a probe closes the circuit.
	drop.remaining.Store(0)
	time.Sleep(60 * time.Millisecond)
	if _, err := o.Invoke(ref, "echo", encodeString("back")); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if got := o.client.BreakerState(addr); got != "closed" {
		t.Fatalf("breaker state after recovery = %s, want closed", got)
	}
}

// TestBreakerOpenPreservesRetryBudget covers the breaker/backoff interaction
// fix: a tripped circuit must fail the invocation immediately — no backoff
// sleep, no burned retry slot, no delivery attempt.
func TestBreakerOpenPreservesRetryBudget(t *testing.T) {
	var slept atomic.Int64
	o := New(WithClientOptions(
		WithRetries(3),
		WithBackoff(BackoffPolicy{Base: time.Millisecond, Cap: 4 * time.Millisecond}),
		WithBreaker(BreakerPolicy{Threshold: 2, Cooldown: time.Minute}),
	))
	o.client.sleep = func(time.Duration) { slept.Add(1) }
	defer o.Close()

	a := NewAdapter()
	if err := a.Register("calc", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Ref("calc")

	drop := &flakyInterceptor{}
	drop.remaining.Store(1 << 30)
	o.SetInterceptor(drop)

	// One invocation: two real attempts trip the threshold-2 breaker, and the
	// third loop iteration must bail out at the circuit — not sleep first.
	if _, err := o.Invoke(ref, "echo", encodeString("x")); !IsCode(err, CodeTransport) {
		t.Fatalf("tripping call: %v", err)
	}
	if got := drop.attempts.Load(); got != 2 {
		t.Fatalf("delivery attempts before trip = %d, want 2", got)
	}
	if got := slept.Load(); got != 1 {
		t.Fatalf("backoff sleeps before trip = %d, want 1 (between the two real attempts)", got)
	}
	if got := o.client.BreakerState(ref.Endpoint.Addr); got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}

	// With the circuit open, the full retry budget is preserved: zero
	// attempts, zero sleeps, immediate failure.
	attempts, sleeps := drop.attempts.Load(), slept.Load()
	if _, err := o.Invoke(ref, "echo", encodeString("x")); !IsCode(err, CodeTransport) {
		t.Fatalf("open-circuit call: %v", err)
	}
	if got := drop.attempts.Load(); got != attempts {
		t.Fatalf("open circuit made %d delivery attempts", got-attempts)
	}
	if got := slept.Load(); got != sleeps {
		t.Fatalf("open circuit slept %d times; fail-fast must not back off", got-sleeps)
	}
}

// TestClientBreakerHalfOpenUnderDelays drives the half-open transition while
// the probe call is artificially delayed (the shape chaos delay faults
// produce): exactly one probe is admitted after the cooldown, concurrent
// calls keep failing fast while it is in flight, and its success closes the
// circuit.
func TestClientBreakerHalfOpenUnderDelays(t *testing.T) {
	o := New(WithClientOptions(
		WithCallTimeout(2*time.Second),
		WithBreaker(BreakerPolicy{Threshold: 1, Cooldown: 30 * time.Millisecond}),
	))
	defer o.Close()

	a := NewAdapter()
	if err := a.Register("calc", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Ref("calc")
	addr := ref.Endpoint.Addr

	var failing atomic.Bool
	failing.Store(true)
	entered := make(chan struct{})
	release := make(chan struct{})
	o.SetInterceptor(interceptorFunc(func(_ Endpoint, _, _ string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
		if failing.Load() {
			return nil, Errorf(CodeTransport, "injected loss")
		}
		entered <- struct{}{} // announce the probe, then stall it
		<-release
		return next()
	}))

	if _, err := o.Invoke(ref, "echo", encodeString("x")); !IsCode(err, CodeTransport) {
		t.Fatalf("tripping call: %v", err)
	}
	if got := o.client.BreakerState(addr); got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}

	// Heal the network and let the cooldown pass; the next call is the probe.
	failing.Store(false)
	time.Sleep(40 * time.Millisecond)
	probeDone := make(chan error, 1)
	go func() {
		_, err := o.Invoke(ref, "echo", encodeString("probe"))
		probeDone <- err
	}()
	<-entered // probe is in flight, delayed inside the interceptor

	if got := o.client.BreakerState(addr); got != "half-open" {
		t.Fatalf("breaker state during probe = %s, want half-open", got)
	}
	// A concurrent call must fail fast, not queue a second probe.
	if _, err := o.Invoke(ref, "echo", encodeString("x")); !IsCode(err, CodeTransport) {
		t.Fatalf("concurrent call during half-open: %v", err)
	}

	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := o.client.BreakerState(addr); got != "closed" {
		t.Fatalf("breaker state after probe success = %s, want closed", got)
	}
}

// TestClientHungPeerDeadlines covers the satellite fix: a peer that accepts
// the connection but never replies must not wedge Invoke or poison the pool.
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

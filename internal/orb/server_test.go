package orb

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"integrade/internal/testutil/leak"
)

// goid returns the running goroutine's id, from the header of its stack.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// gateServant has a "block" operation that reports on entered and then
// waits for release, and a "who" operation that returns its goroutine's id.
type gateServant struct {
	entered chan struct{}
	release chan struct{}
}

func newGateServant(buffered int) *gateServant {
	return &gateServant{entered: make(chan struct{}, buffered), release: make(chan struct{})}
}

func (g *gateServant) servant() Servant {
	return NewOpMux().
		Handle("block", func(string, *Decoder) (*Encoder, error) {
			g.entered <- struct{}{}
			<-g.release
			var e Encoder
			e.PutString(goid())
			return &e, nil
		}).
		Handle("who", func(string, *Decoder) (*Encoder, error) {
			var e Encoder
			e.PutString(goid())
			return &e, nil
		})
}

func gateAdapter(t *testing.T, g *gateServant) *Adapter {
	t.Helper()
	a := NewAdapter()
	if err := a.Register("gate", g.servant()); err != nil {
		t.Fatal(err)
	}
	return a
}

func serveGate(t *testing.T, g *gateServant) (*ORB, *Server, ObjectRef) {
	t.Helper()
	o := New()
	srv, err := o.ListenTCP("127.0.0.1:0", gateAdapter(t, g))
	if err != nil {
		t.Fatal(err)
	}
	return o, srv, srv.Ref("gate")
}

func who(t *testing.T, o *ORB, ref ObjectRef, op string) string {
	t.Helper()
	reply, err := o.Invoke(ref, op, nil)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	d := NewDecoder(reply)
	id := d.String()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestServerRequestNeverWaitsBehindServant: every request reaches its
// servant while earlier ones are still blocked in theirs — whether the
// client has an idle connection to give it (the first blocker takes the one
// the warm-up call left) or none (every later one), and past the number of
// idle connections a client keeps.
func TestServerRequestNeverWaitsBehindServant(t *testing.T) {
	const blockers = maxIdleConns + 3
	g := newGateServant(blockers)
	o, srv, ref := serveGate(t, g)
	defer o.Close()
	defer srv.Close()

	who(t, o, ref, "who") // leaves one connection idle
	var wg sync.WaitGroup
	for i := 0; i < blockers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := o.Invoke(ref, "block", nil); err != nil {
				t.Errorf("block: %v", err)
			}
		}()
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("blocker %d never reached its servant behind %d blocked ones", i, i)
		}
		// And a quick call gets through and back while they all sit there.
		who(t, o, ref, "who")
	}
	close(g.release)
	wg.Wait()
}

// TestServerKeepsWorkers: a caller that waits for each reply is served by
// one goroutine — its connection's — for as long as the connection lives.
func TestServerKeepsWorkers(t *testing.T) {
	o, srv, ref := serveGate(t, newGateServant(0))
	defer o.Close()
	defer srv.Close()

	first := who(t, o, ref, "who")
	for i := 1; i < 1000; i++ {
		if id := who(t, o, ref, "who"); id != first {
			t.Fatalf("call %d served by goroutine %s, the ones before it by %s", i, id, first)
		}
	}
}

// TestServerCloseDuringBurst: Close with requests inside their servants cuts
// the callers off at once, returns when the last servant has, and leaves no
// goroutine — a connection's or the accept loop — behind.
func TestServerCloseDuringBurst(t *testing.T) {
	const burst = 64
	g := newGateServant(burst)
	o, srv, ref := serveGate(t, g)

	who(t, o, ref, "who")
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, err := o.Invoke(ref, "block", nil)
			errs <- err
		}()
	}
	for i := 0; i < burst; i++ {
		<-g.entered
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_ = srv.Close()
	}()
	for i := 0; i < burst; i++ {
		if err := <-errs; !IsCode(err, CodeTransport) {
			t.Fatalf("caller cut off by Close: err = %v, want a transport error", err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned with 64 requests still in their servants")
	default:
	}
	close(g.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the servants did")
	}
	o.Close()
	leak.VerifyNone(t)
}

// TestNestedCallbackDoesNotDeadlock: a servant on A calls B, whose servant
// calls A, whose servant calls B — each ORB has two calls to the other in
// flight at once, the outer waiting on the inner. Each nested call rides a
// connection of its own, so none waits behind the servant that made it.
func TestNestedCallbackDoesNotDeadlock(t *testing.T) {
	var orbs [2]*ORB
	var refs [2]ObjectRef
	for i := range orbs {
		o := newORBWithCallTimeout(2 * time.Second)
		defer o.Close()
		a := NewAdapter()
		// "hop" with n left to go calls the other side with n-1, and answers
		// with the number of hops made below it.
		mux := NewOpMux().Handle("hop", func(_ string, req *Decoder) (*Encoder, error) {
			left := req.U8()
			if err := req.Err(); err != nil {
				return nil, err
			}
			var made uint8
			if left > 0 {
				reply, err := o.Invoke(refs[1-i], "hop", []byte{left - 1})
				if err != nil {
					return nil, err
				}
				made = NewDecoder(reply).U8() + 1
			}
			e := GetEncoder()
			e.PutU8(made)
			return e, nil
		})
		if err := a.Register("hopper", mux); err != nil {
			t.Fatal(err)
		}
		srv, err := o.ListenTCP("127.0.0.1:0", a)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		orbs[i], refs[i] = o, srv.Ref("hopper")
	}

	// B's client calls A: A -> B -> A -> B below it.
	reply, err := orbs[1].Invoke(refs[0], "hop", []byte{3})
	if err != nil {
		t.Fatalf("nested chain: %v", err)
	}
	if made := NewDecoder(reply).U8(); made != 3 {
		t.Fatalf("chain made %d nested hops, want 3", made)
	}
}

// TestNamesPastTheReadBuffer: a key, an op and an error message longer than
// a connection's read buffer are read past it, not through it, and arrive
// whole; the next request naming them does too.
func TestNamesPastTheReadBuffer(t *testing.T) {
	key := strings.Repeat("k", 5000)
	op := strings.Repeat("o", 6000)
	msg := strings.Repeat("m", 9000)
	adapter := NewAdapter()
	mux := NewOpMux().Handle(op, func(string, *Decoder) (*Encoder, error) {
		return nil, Errorf(CodeApplication, "%s", msg)
	})
	if err := adapter.Register(key, mux); err != nil {
		t.Fatal(err)
	}
	o := New()
	defer o.Close()
	srv, err := o.ListenTCP("127.0.0.1:0", adapter)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for call := 1; call <= 2; call++ {
		_, err := o.Invoke(srv.Ref(key), op, []byte("body"))
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeApplication || re.Msg != msg {
			t.Fatalf("call %d: err %.80v, want the servant's %d-byte error", call, err, len(msg))
		}
	}
}

package orb

import (
	"bytes"
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

// serverWorkers counts the live connection workers of every Server in the
// process: the goroutines running a closure of serveConn.
func serverWorkers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "orb.(*Server).serveConn.func") {
			n++
		}
	}
	return n
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

func serveGate(t *testing.T, g *gateServant) (*ORB, *Server, ObjectRef) {
	t.Helper()
	a := NewAdapter()
	if err := a.Register("gate", g.servant()); err != nil {
		t.Fatal(err)
	}
	o := New()
	srv, err := o.ListenTCP("127.0.0.1:0", a)
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

// TestServerRequestNeverWaitsBehindServant: every request on one connection
// reaches its servant while earlier ones are still blocked in theirs —
// whether the connection has an idle worker to give it (the first blocker
// takes the one the warm-up call left) or none (every later one), and past
// the number of workers a connection keeps.
func TestServerRequestNeverWaitsBehindServant(t *testing.T) {
	const blockers = maxIdleWorkers + 3
	g := newGateServant(blockers)
	o, srv, ref := serveGate(t, g)
	defer o.Close()
	defer srv.Close()

	who(t, o, ref, "who") // leaves one worker idle
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
// one goroutine for as long as the connection lives, and a burst that needs
// many workers at once leaves no more than maxIdleWorkers behind.
func TestServerKeepsWorkers(t *testing.T) {
	const burst = 64
	g := newGateServant(burst)
	o, srv, ref := serveGate(t, g)
	defer o.Close()
	defer srv.Close()

	first := who(t, o, ref, "who")
	for i := 1; i < 1000; i++ {
		if id := who(t, o, ref, "who"); id != first {
			t.Fatalf("call %d served by goroutine %s, the ones before it by %s", i, id, first)
		}
	}

	// All of the burst is inside the servant at once, so it takes 64 workers.
	replies := make(chan []byte, burst)
	for i := 0; i < burst; i++ {
		go func() {
			reply, err := o.Invoke(ref, "block", nil)
			if err != nil {
				t.Errorf("block: %v", err)
			}
			replies <- reply
		}()
	}
	for i := 0; i < burst; i++ {
		<-g.entered
	}
	if got := serverWorkers(); got != burst {
		t.Fatalf("%d workers with %d requests blocked in the servant", got, burst)
	}
	close(g.release)
	served := make(map[string]bool)
	for i := 0; i < burst; i++ {
		served[NewDecoder(<-replies).String()] = true
	}
	if len(served) != burst {
		t.Fatalf("burst served by %d goroutines, want %d", len(served), burst)
	}
	// A surplus worker exits after its reply is written, which the caller can
	// see first: give the stragglers a moment.
	deadline := time.Now().Add(10 * time.Second)
	for serverWorkers() > maxIdleWorkers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := serverWorkers(); got > maxIdleWorkers {
		t.Fatalf("%d workers left after the burst, want at most %d", got, maxIdleWorkers)
	}
	if id := who(t, o, ref, "who"); !served[id] {
		t.Fatalf("after the burst a new goroutine %s served the call, not a kept one", id)
	}
}

// TestServerCloseDuringBurst: Close with requests inside their servants cuts
// the callers off at once, returns when the last servant has, and leaves no
// goroutine — worker, reader or accept loop — behind.
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

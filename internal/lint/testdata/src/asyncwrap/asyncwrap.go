// Fixture for the locks analyzer's view of literals handed to a repo-local
// wrapper: one that passes its parameter straight on to AfterFunc (the
// keepLocked(k, d, f) shape) or to orb.Serve (the serveWrite[Req, Rep] shape)
// hands the literal on, so it runs later and its blocking is not its
// definer's. A function that calls its parameter itself, as well or only,
// does not, and a blocking call the defining function makes itself is still
// reported.
package asyncwrap

import (
	"sync"
	"time"

	"integrade/internal/orb"
)

var write = &orb.Op[int, int]{Name: "wrap.write"}

// clock is an AfterFunc-style scheduler.
type clock struct{}

// AfterFunc runs f after d, on the event loop.
func (clock) AfterFunc(d time.Duration, f func()) {}

// slot keeps one armed timer.
type slot struct{ clock clock }

type server struct {
	mu  sync.Mutex
	ch  chan int
	k   *slot
	mux *orb.OpMux
}

// keepLocked arms f on k's clock: it passes f straight on to AfterFunc.
func keepLocked(k *slot, d time.Duration, f func()) {
	k.clock.AfterFunc(d, f)
}

// serveWrite registers fn for op: it passes fn straight on to orb.Serve.
func serveWrite[Req, Rep any](mux *orb.OpMux, op *orb.Op[Req, Rep], fn func(Req) (Rep, error)) {
	orb.Serve(mux, op, fn)
}

// run calls f itself, on its caller's stack.
func run(f func()) { f() }

// armAndRun arms f and calls it at once too: it is no wrapper.
func armAndRun(k *slot, d time.Duration, f func()) {
	k.clock.AfterFunc(d, f)
	f()
}

// Start arms a blocking timer callback and registers a blocking handler, both
// through wrappers: neither runs on Start's stack.
func (s *server) Start() {
	keepLocked(s.k, time.Second, func() { s.ch <- 1 })
	serveWrite[int, int](s.mux, write, func(v int) (int, error) {
		s.ch <- v
		return v, nil
	})
}

// Add holds the lock across Start, which blocks nowhere.
func (s *server) Add() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Start()
}

// StartAndWait arms the same callback and then waits itself.
func (s *server) StartAndWait() {
	keepLocked(s.k, time.Second, func() { s.ch <- 1 })
	<-s.ch
}

// AddAndWait holds the lock across StartAndWait, whose own receive blocks.
func (s *server) AddAndWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.StartAndWait() // want `call to asyncwrap\.\(\*server\)\.StartAndWait while holding s\.mu may block: asyncwrap\.\(\*server\)\.StartAndWait: channel receive`
}

// Now hands a blocking literal to run, which calls it at once.
func (s *server) Now() {
	run(func() { s.ch <- 1 })
}

// AddNow holds the lock across Now, whose literal blocks on its stack.
func (s *server) AddNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Now() // want `call to asyncwrap\.\(\*server\)\.Now while holding s\.mu may block`
}

// Armed hands a blocking literal to armAndRun, which calls it at once too.
func (s *server) Armed() {
	armAndRun(s.k, time.Second, func() { s.ch <- 1 })
}

// AddArmed holds the lock across Armed, whose literal blocks on its stack.
func (s *server) AddArmed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Armed() // want `call to asyncwrap\.\(\*server\)\.Armed while holding s\.mu may block`
}

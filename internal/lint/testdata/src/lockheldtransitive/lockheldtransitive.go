// Fixture for the locks analyzer's may-block findings: helpers that block
// one or more calls away from a held mutex, including through a closure,
// plus the shapes that must stay silent — helpers called after unlock, pure
// computation, goroutine hand-offs and non-blocking polls — and direct
// blocking, reported once as itself.
package lockheldtransitive

import (
	"sync"
	"time"
)

type server struct {
	mu    sync.Mutex
	state int
	ch    chan int
}

// OneHop blocks one call away: pause sleeps.
func (s *server) OneHop() {
	s.mu.Lock()
	s.pause() // want `call to lockheldtransitive\.\(\*server\)\.pause while holding s\.mu may block: lockheldtransitive\.\(\*server\)\.pause: Sleep`
	s.mu.Unlock()
}

func (s *server) pause() {
	time.Sleep(time.Millisecond)
}

// TwoHops blocks two calls away: publish -> emit -> channel send.
func (s *server) TwoHops() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publish() // want `call to lockheldtransitive\.\(\*server\)\.publish while holding s\.mu may block: lockheldtransitive\.\(\*server\)\.publish -> lockheldtransitive\.\(\*server\)\.emit: channel send`
}

func (s *server) publish()   { s.emit(s.state) }
func (s *server) emit(v int) { s.ch <- v }

// Flush blocks through a closure defined (and run) inside the helper.
func (s *server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain() // want `call to lockheldtransitive\.\(\*server\)\.drain while holding s\.mu may block`
}

func (s *server) drain() {
	pull := func() int { return <-s.ch }
	s.state = pull()
}

// Cycle exercises the fixpoint on mutual recursion: walkDown and walkUp
// call each other and the blocking operation sits on the cycle.
func (s *server) Cycle(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walkDown(n) // want `call to lockheldtransitive\.\(\*server\)\.walkDown while holding s\.mu may block`
}

func (s *server) walkDown(n int) {
	if n <= 0 {
		return
	}
	s.walkUp(n - 1)
}

func (s *server) walkUp(n int) {
	s.ch <- n
	s.walkDown(n)
}

// AfterUnlock calls the blocking helper only once the lock is dropped.
func (s *server) AfterUnlock() {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	s.pause()
}

// Pure holds the lock across a helper that cannot block.
func (s *server) Pure() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compute()
}

func (s *server) compute() int { return s.state * 2 }

// Direct blocks immediately under the lock: that is a direct finding, and
// must not be reported again as a call that may block.
func (s *server) Direct() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `^Sleep while holding s\.mu$`
	s.mu.Unlock()
}

// Spawn hands the blocking helper to a goroutine, which does not run under
// the caller's lock.
func (s *server) Spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.pause()
}

// Poll holds the lock across a helper whose select has a default and
// therefore never blocks.
func (s *server) Poll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tryRecv()
}

func (s *server) tryRecv() int {
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}

// Allowed documents a deliberate exception with the escape hatch.
func (s *server) Allowed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow locks startup path, no concurrent callers yet
	s.pause()
}

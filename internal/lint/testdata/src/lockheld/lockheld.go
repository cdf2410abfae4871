// Package lockheldfixture exercises the locks analyzer's direct findings:
// blocking operations under a held sync.Mutex/RWMutex must be flagged, in
// methods and in package-level function literals alike; unlock-first code,
// early-unlock returns, sync.Cond.Wait and closures that merely capture the
// lock scope must pass.
package lockheldfixture

import (
	"sync"
	"time"

	"integrade/internal/protocol"
)

type invoker struct{}

// Invoke mimics an ORB invocation entry point.
func (invoker) Invoke(op string) ([]byte, error) { return nil, nil }

type server struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	ch      chan int
	wg      sync.WaitGroup
	cond    *sync.Cond
	grm     *protocol.GRMClient
	inv     invoker
	onEvict func()
}

func (s *server) badSend() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while holding s\.mu`
	s.mu.Unlock()
}

func (s *server) badRecvUnderDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ch // want `channel receive while holding s\.mu`
}

func (s *server) badInvoke() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, _ = s.inv.Invoke("op") // want `ORB invocation Invoke while holding s\.rw`
}

func (s *server) badRPC(appID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.grm.CancelApp(appID) // want `protocol RPC GRMClient\.CancelApp while holding s\.mu`
}

func (s *server) badWaitAndSleep() {
	s.mu.Lock()
	s.wg.Wait()                  // want `WaitGroup\.Wait while holding s\.mu`
	time.Sleep(time.Millisecond) // want `Sleep while holding s\.mu`
	s.mu.Unlock()
}

func (s *server) badSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking select while holding s\.mu`
	case <-s.ch:
	}
}

func (s *server) badInsideIf(ready bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ready {
		s.ch <- 1 // want `channel send while holding s\.mu`
	}
}

func (s *server) goodUnlockFirst() {
	s.mu.Lock()
	v := len(s.ch)
	s.mu.Unlock()
	s.ch <- v
}

func (s *server) goodEarlyUnlockReturn() bool {
	s.mu.Lock()
	if s.ch == nil {
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()
	<-s.ch
	return true
}

func (s *server) goodCondWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cond.Wait() // sync.Cond.Wait is specified to run with the lock held
}

func (s *server) goodCapturedClosure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEvict = func() { s.ch <- 1 } // runs later, not under this lock
}

func (s *server) goodNonBlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.ch:
	default:
	}
}

func (s *server) allowedSend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 //lint:allow locks buffered status channel, never blocks
}

// flushAll is a package-level literal: the call graph has no node for it,
// but its body is scanned like any function's.
var flushAll = func(s *server) {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while holding s\.mu`
	s.mu.Unlock()
}

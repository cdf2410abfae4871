package grm

import (
	"runtime"
	"testing"

	"integrade/internal/orb"
	"integrade/internal/sim"
)

// TestDrainAdmissionLatch pins the one drain loop's two callers against each
// other. While another drainer holds the latch, or once the GRM stops, the
// background drainer leaves the queue as it is and clears drainerRunning so
// a later Submit can kick a fresh one. A synchronous drainer instead outwaits
// the latch holder and returns only with the queue empty.
func TestDrainAdmissionLatch(t *testing.T) {
	g := New("test", sim.NewVirtualClock(), orb.New())
	defer g.Stop()
	state := func() (queued int, running bool) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.admitQ), g.drainerRunning
	}

	g.mu.Lock()
	g.admitQ = append(g.admitQ, &appInfo{id: "app-1"})
	g.draining, g.drainerRunning = true, true
	g.mu.Unlock()
	g.drainAdmission(true)
	if queued, running := state(); queued != 1 || running {
		t.Fatalf("background drainer under a held latch: queued %d, running %v; want 1, false", queued, running)
	}

	go func() {
		// Release the latch as its holder does, once the synchronous drainer
		// has made drainDone to wait on.
		for {
			g.mu.Lock()
			if ch := g.drainDone; ch != nil {
				g.draining, g.drainDone = false, nil
				close(ch)
				g.mu.Unlock()
				return
			}
			g.mu.Unlock()
			runtime.Gosched()
		}
	}()
	g.drainAdmission(false)
	if queued, _ := state(); queued != 0 {
		t.Fatalf("synchronous drainer returned with %d queued", queued)
	}

	g.mu.Lock()
	g.admitQ = append(g.admitQ, &appInfo{id: "app-2"})
	g.stopped, g.drainerRunning = true, true
	g.mu.Unlock()
	g.drainAdmission(true)
	if queued, running := state(); queued != 1 || running {
		t.Fatalf("background drainer after Stop: queued %d, running %v; want 1, false", queued, running)
	}
}

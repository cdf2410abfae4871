package grm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// sweepFixture is a GRM whose failure detector suspects a node after 10 s of
// silence, and the statuses of its nodes, each reported twice a second apart
// so the detector may suspect it.
func sweepFixture(t *testing.T, nodes int) (*GRM, *sim.VirtualClock, []protocol.NodeStatus) {
	t.Helper()
	clock := sim.NewVirtualClock()
	g := New("sweep", clock, orb.New(), WithSuspectAfter(10*time.Second))
	t.Cleanup(g.Stop)
	fleet := make([]protocol.NodeStatus, nodes)
	for i := range fleet {
		fleet[i] = protocol.NodeStatus{
			NodeID:   fmt.Sprintf("n%02d", i),
			LRMRef:   orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprint(i)}, Key: protocol.LRMKey},
			Platform: resource.Platform{Arch: "amd64", OS: "linux"},
			GridFree: resource.Vector{MIPS: 1000, RAMMB: 1024},
		}
	}
	for range 2 {
		for i := range fleet {
			heartbeat(t, g, clock, fleet[i])
		}
		clock.Advance(time.Second)
	}
	return g, clock, fleet
}

// heartbeat sends s as of now.
func heartbeat(t *testing.T, g *GRM, clock *sim.VirtualClock, s protocol.NodeStatus) {
	s.Timestamp = clock.Now()
	if _, err := g.HandleUpdate(&s); err != nil {
		t.Error(err)
	}
}

// checkOneOfferPerNode fails t unless every node the GRM holds alive has
// exactly one status offer and no other node has any.
func checkOneOfferPerNode(t *testing.T, g *GRM, when string) {
	t.Helper()
	g.mu.Lock()
	alive := make(map[orb.ObjectRef]string, len(g.nodes))
	for id, lv := range g.nodes {
		alive[lv.lrm] = id
	}
	g.mu.Unlock()
	offers := make(map[orb.ObjectRef]int)
	for _, o := range g.Trader().All(NodeStatusType) {
		offers[o.Ref]++
	}
	for ref, id := range alive {
		if offers[ref] != 1 {
			t.Errorf("%s: node %s is alive with %d offers", when, id, offers[ref])
		}
	}
	if len(offers) != len(alive) {
		t.Errorf("%s: %d nodes alive, offers under %d references", when, len(alive), len(offers))
	}
}

// TestSweepRacingHeartbeatReplay replays, step by step, a heartbeat from a
// node the failure sweep is declaring dead: its record and export against the
// sweep's verdict and withdraw. Wherever it lands, the node ends up either
// dead without an offer or alive with exactly one.
func TestSweepRacingHeartbeatReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		replay func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus)
	}{
		{"heartbeat before the verdict", func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus) {
			heartbeat(t, g, clock, *s)
			g.detectFailures()
		}},
		{"heartbeat between verdict and withdraw", func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus) {
			g.mu.Lock()
			dead := g.declareDeadLocked(clock.Now())
			g.mu.Unlock()
			heartbeat(t, g, clock, *s)
			for _, d := range dead {
				g.bury(d)
			}
		}},
		{"recorded before the withdraw, exported after it", func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus) {
			now := clock.Now()
			g.mu.Lock()
			dead := g.declareDeadLocked(now)
			g.mu.Unlock()
			s.Timestamp = now
			epoch, export, err := g.recordUpdate(s, now)
			if err != nil || !export {
				t.Fatalf("recordUpdate = %d, %v, %v", epoch, export, err)
			}
			for _, d := range dead {
				g.bury(d)
			}
			g.exportStatusOffer(s, now, epoch)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, clock, fleet := sweepFixture(t, 2)
			clock.Advance(20 * time.Second)
			heartbeat(t, g, clock, fleet[1]) // n01 stays alive, n00 is stale
			tc.replay(t, g, clock, &fleet[0])
			checkOneOfferPerNode(t, g, tc.name)
			if g.KnownNodes() != 2 {
				t.Errorf("%s: the trader knows %d nodes, want both", tc.name, g.KnownNodes())
			}
		})
	}
}

// TestSweepRacingHeartbeats runs the failure sweep while 8 goroutines
// heartbeat 64 nodes, half of which are stale when the sweep starts, and
// checks after every round that each node left alive has exactly one offer.
func TestSweepRacingHeartbeats(t *testing.T) {
	const nodes, workers, rounds = 64, 8, 50
	g, clock, fleet := sweepFixture(t, nodes)
	for round := range rounds {
		clock.Advance(20 * time.Second)
		for i := range nodes / 2 {
			heartbeat(t, g, clock, fleet[i])
		}
		var wg sync.WaitGroup
		wg.Add(workers + 1)
		go func() {
			defer wg.Done()
			g.detectFailures()
		}()
		for w := range workers {
			go func() {
				defer wg.Done()
				for i := w; i < nodes; i += workers {
					heartbeat(t, g, clock, fleet[i])
				}
			}()
		}
		wg.Wait()
		checkOneOfferPerNode(t, g, fmt.Sprintf("round %d", round))
	}
}

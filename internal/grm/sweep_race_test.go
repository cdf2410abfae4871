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
	"integrade/internal/trading"
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
	if err := sendUpdate(g, s); err != nil {
		t.Error(err)
	}
}

// sendUpdate delivers s as an LRM's update arrives: encoded, and decoded by
// g's OpUpdate handler against the identity of the node's record, which it
// looks up under g.mu while the other goroutines of a test change the records.
func sendUpdate(g *GRM, s protocol.NodeStatus) error {
	var e orb.Encoder
	protocol.EncodeUpdate(&e, s, nil)
	_, err := g.Servant().Dispatch(protocol.OpUpdate, orb.NewDecoder(e.Bytes()))
	return err
}

// checkOneOfferPerNode fails t unless every node the GRM holds alive, and not
// departing, has exactly one status offer, under the reference it last
// reported from, and nothing else has any.
func checkOneOfferPerNode(t *testing.T, g *GRM, when string) {
	t.Helper()
	g.mu.Lock()
	alive := make(map[orb.ObjectRef]string, len(g.nodes))
	for id, lv := range g.nodes {
		if lv.departUntil.IsZero() {
			alive[lv.status.LRMRef] = id
		}
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
			epoch, place, _, export, err := g.recordUpdate(s, s.Windows, now)
			if err != nil || !export {
				t.Fatalf("recordUpdate = %d, %v, %v", epoch, export, err)
			}
			for _, d := range dead {
				g.bury(d)
			}
			g.exportStatusOffer(s, coveringWindow(s.Windows, now), now, epoch, place)
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
// The GRM leads a replica set whose stream flushes all the while, and every
// heartbeat reports a window count its node's previous one did not, so the
// records' window arrays are rewritten in place, and grown, under the readers
// of a record: the batch encoder and restoreOffer, which may only read them
// under g.mu. `make chaos` runs this ten times under the race detector.
func TestSweepRacingHeartbeats(t *testing.T) {
	const nodes, workers, rounds = 64, 8, 50
	g, clock, fleet := sweepFixture(t, nodes)
	repl := newReplicator(g, func(batch []byte) error {
		_, err := decodeReplicaBatch(orb.NewDecoder(batch))
		if err != nil {
			t.Errorf("a replica batch does not decode: %v", err)
		}
		return err
	})
	g.mu.Lock()
	g.repl = repl
	g.mu.Unlock()
	// withWindows is s reporting n one-hour windows, the first covering now.
	withWindows := func(s protocol.NodeStatus, n int) protocol.NodeStatus {
		now := clock.Now()
		for k := range n {
			start := now.Add(time.Duration(2*k)*time.Hour - time.Minute)
			s.Windows = append(s.Windows, protocol.AvailWindow{Start: start, End: start.Add(time.Hour), Confidence: 0.5})
		}
		return s
	}
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
		stop, flushed := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(flushed)
			for {
				select {
				case <-stop:
					return
				default:
					repl.flush()
				}
			}
		}()
		for w := range workers {
			go func() {
				defer wg.Done()
				// Three windows, then two, then one: each heartbeat after the
				// first rewrites the array the one before it grew.
				for n := 3; n > 0; n-- {
					for i := w; i < nodes; i += workers {
						heartbeat(t, g, clock, withWindows(fleet[i], n))
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-flushed
		checkOneOfferPerNode(t, g, fmt.Sprintf("round %d", round))
	}
}

// TestDepartureRacingUpdateReplay replays, step by step, an update from a node
// whose Departing notice arrives meanwhile: its record and export against the
// departure's mark and withdraw. Wherever the notice lands the node ends up
// without an offer, a heartbeat before the deadline adds none, and the first
// update past the deadline exports one again.
func TestDepartureRacingUpdateReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		replay func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func())
	}{
		{"recorded before the departure, exported through its place after the withdraw", func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func()) {
			epoch, place, _, export, err := g.recordUpdate(s, s.Windows, s.Timestamp)
			if err != nil || !export || place == (trading.Place{}) {
				t.Fatalf("recordUpdate = %d, %v, %v, %v; want an export through the node's place", epoch, place, export, err)
			}
			depart()
			v := g.Trader().Version()
			g.exportStatusOffer(s, coveringWindow(s.Windows, s.Timestamp), s.Timestamp, epoch, place)
			if g.Trader().Version() != v {
				t.Error("the update's export wrote to the trader after the departure took its place")
			}
		}},
		{"a node's first update, exported by reference after the departure", func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func()) {
			s.NodeID = "n-new"
			s.LRMRef.Endpoint.Addr = "new"
			epoch, place, _, export, err := g.recordUpdate(s, s.Windows, s.Timestamp)
			if err != nil || !export || place != (trading.Place{}) {
				t.Fatalf("recordUpdate = %d, %v, %v, %v; want a first export, by reference", epoch, place, export, err)
			}
			depart()
			g.exportStatusOffer(s, coveringWindow(s.Windows, s.Timestamp), s.Timestamp, epoch, place)
		}},
		{"the departure before the record", func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func()) {
			depart()
			if _, err := g.handleUpdate(s, s.Windows); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, clock, fleet := sweepFixture(t, 2)
			s := fleet[0]
			s.Timestamp = clock.Now()
			deadline := clock.Now().Add(30 * time.Second) // inside the offers' TTL
			tc.replay(t, g, &s, func() {
				g.HandleDeparting(protocol.DepartureNotice{NodeID: s.NodeID, Deadline: deadline, At: clock.Now()})
			})
			offers := func() int {
				n := 0
				for _, o := range g.Trader().All(NodeStatusType) {
					if o.Ref == s.LRMRef {
						n++
					}
				}
				return n
			}
			if n := offers(); n != 0 {
				t.Fatalf("the departing node has %d offers after the race", n)
			}
			clock.Advance(10 * time.Second)
			heartbeat(t, g, clock, s)
			if n := offers(); n != 0 {
				t.Fatalf("the departing node has %d offers after a heartbeat before its deadline", n)
			}
			checkOneOfferPerNode(t, g, "before the deadline")
			clock.Advance(20 * time.Second)
			heartbeat(t, g, clock, s)
			if n := offers(); n != 1 {
				t.Fatalf("the node has %d offers after an update past its deadline, want 1", n)
			}
			checkOneOfferPerNode(t, g, "past the deadline")
		})
	}
}

// TestNodeMovingRefKeepsOneOffer: an LRM that comes back at another address
// under the same node ID leaves one offer, under the new reference — not the
// old one as well until its TTL runs out, for placement to pick — and an
// export by reference, as restoreOffer's, finds that offer and no other.
func TestNodeMovingRefKeepsOneOffer(t *testing.T) {
	g, clock, fleet := sweepFixture(t, 1)
	s := fleet[0]
	s.LRMRef.Endpoint.Addr = "elsewhere"
	heartbeat(t, g, clock, s)
	for _, when := range []string{"after the move", "after a re-export by reference"} {
		all := g.Trader().All(NodeStatusType)
		if len(all) != 1 || all[0].Ref != s.LRMRef || g.KnownNodes() != 1 {
			t.Fatalf("%s the trader holds %d offers (first under %v) and knows %d nodes; want one, under %v",
				when, len(all), all[0].Ref, g.KnownNodes(), s.LRMRef)
		}
		checkOneOfferPerNode(t, g, when)
		g.restoreOffer(s.NodeID)
	}
}

// TestSweptOfferComesBack: nodes silent past the offer TTL, but not declared
// dead, lose their offers to the expiry sweep of the first write to their
// shard — their neighbours' updates — while their records still hold the
// places. Each one's next update finds its place dead and exports by
// reference again.
func TestSweptOfferComesBack(t *testing.T) {
	const nodes = 200 // about three a shard: most shards' first update sweeps a neighbour
	g, clock, fleet := sweepFixture(t, nodes)
	clock.Advance(2 * DefaultOfferTTL)
	if got := g.KnownNodes(); got != 0 {
		t.Fatalf("the trader knows %d nodes after the silence, want none", got)
	}
	for i := range fleet {
		heartbeat(t, g, clock, fleet[i])
	}
	checkOneOfferPerNode(t, g, "after the silence")
	if got := g.KnownNodes(); got != nodes {
		t.Fatalf("the trader knows %d nodes, want %d", got, nodes)
	}
}

// TestUpdatesRacingDeparturesAndMoves runs, under -race, four goroutines that
// update every node of 64 in orders of their own — each update from one of
// the node's two references, so a node keeps moving between them — while a
// fifth announces departures. Once they stop, every node that is not departing
// has exactly one offer, under the reference it last reported from, and every
// departing node none; once the deadlines pass, one update each brings every
// node back.
func TestUpdatesRacingDeparturesAndMoves(t *testing.T) {
	const nodes, updaters, rounds = 64, 4, 20
	g, clock, fleet := sweepFixture(t, nodes)
	deadline := clock.Now().Add(time.Hour)
	moved := func(s protocol.NodeStatus, rng *sim.RNG) protocol.NodeStatus {
		if rng.Bool(0.2) {
			s.LRMRef.Endpoint.Addr += "-moved"
		}
		s.Timestamp = clock.Now()
		return s
	}
	var wg sync.WaitGroup
	for w := range updaters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRNG(int64(w))
			for range rounds {
				for _, i := range rng.Perm(nodes) {
					if err := sendUpdate(g, moved(fleet[i], rng)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := sim.NewRNG(99)
		for _, i := range rng.Perm(nodes)[:nodes/2] {
			g.HandleDeparting(protocol.DepartureNotice{NodeID: fleet[i].NodeID, Deadline: deadline, At: clock.Now()})
		}
	}()
	wg.Wait()
	checkOneOfferPerNode(t, g, "after the storm")
	if got, want := g.KnownNodes(), nodes/2; got != want {
		t.Errorf("the trader knows %d nodes after the storm, want the %d that did not depart", got, want)
	}
	clock.Advance(2 * time.Hour)
	for i := range fleet {
		heartbeat(t, g, clock, fleet[i])
	}
	checkOneOfferPerNode(t, g, "past the deadlines")
	if got := g.KnownNodes(); got != nodes {
		t.Errorf("the trader knows %d nodes past the deadlines, want %d", got, nodes)
	}
}

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
	if err := sendUpdate(g, s); err != nil {
		t.Error(err)
	}
}

// depart sends s as of now, announcing a departure until deadline.
func depart(t *testing.T, g *GRM, clock *sim.VirtualClock, s protocol.NodeStatus, deadline time.Time) {
	s.DepartUntil = deadline
	heartbeat(t, g, clock, s)
}

// sendUpdate delivers s as an LRM's update arrives: encoded, and decoded by
// g's OpUpdate handler against the identity of the node's record, which it
// looks up under g.mu while the other goroutines of a test change the records.
func sendUpdate(g *GRM, s protocol.NodeStatus) error {
	_, err := g.Servant().Dispatch(protocol.OpUpdate, updateFrame(&s))
	return err
}

// updateFrame is the body of an update of s, its windows included, with no
// events, as an LRM sends it.
func updateFrame(s *protocol.NodeStatus) *orb.Decoder {
	var e orb.Encoder
	protocol.EncodeUpdate(&e, *s, nil)
	return orb.NewDecoder(e.Bytes())
}

// checkOneOfferPerNode fails t unless every node the GRM holds alive, and not
// departing, has exactly one status offer, under the reference it last
// reported from, every departing node has none, and nothing else has any.
func checkOneOfferPerNode(t *testing.T, g *GRM, when string) {
	t.Helper()
	g.mu.Lock()
	alive := make(map[orb.ObjectRef]string, len(g.nodes))
	departing := make(map[orb.ObjectRef]string)
	for id, lv := range g.nodes {
		if lv.departUntil.IsZero() {
			alive[lv.status.LRMRef] = id
		} else {
			departing[lv.status.LRMRef] = id
		}
	}
	g.mu.Unlock()
	offers := make(map[orb.ObjectRef]int)
	for _, o := range g.Trader().All("") {
		offers[o.Ref]++
	}
	for ref, id := range alive {
		if offers[ref] != 1 {
			t.Errorf("%s: node %s is alive with %d offers", when, id, offers[ref])
		}
	}
	for ref, id := range departing {
		if offers[ref] != 0 {
			t.Errorf("%s: node %s departs with %d offers", when, id, offers[ref])
		}
	}
	if len(offers) != len(alive) {
		t.Errorf("%s: %d nodes alive, offers under %d references", when, len(alive), len(offers))
	}
}

// TestSweepRacingHeartbeatReplay replays a heartbeat from a node the failure
// sweep is declaring dead, in the two orders the sweep's one g.mu section
// leaves: the heartbeat before it, which keeps the node alive, and after it,
// which re-registers the node. Either way the node ends up alive with exactly
// one offer.
func TestSweepRacingHeartbeatReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		replay func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus)
	}{
		{"heartbeat before the verdict", func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus) {
			heartbeat(t, g, clock, *s)
			g.detectFailures()
			if got := g.Stats().NodesDeclaredDead; got != 0 {
				t.Errorf("the sweep declared %d nodes dead after the heartbeat, want none", got)
			}
		}},
		{"heartbeat after the verdict", func(t *testing.T, g *GRM, clock *sim.VirtualClock, s *protocol.NodeStatus) {
			g.detectFailures()
			if got := g.Stats().NodesDeclaredDead; got != 1 {
				t.Errorf("the sweep declared %d nodes dead, want the stale one", got)
			}
			heartbeat(t, g, clock, *s)
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
// heartbeat reports a window count its node's previous one did not, which
// its export reads from the update, not from the node's record. `make race`
// runs this ten times under the race detector.
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
	// A task runs on every node, so that a sweep rolls a node's task back.
	app := &appInfo{id: "app"}
	g.mu.Lock()
	g.repl = repl
	for _, s := range fleet {
		app.tasks = append(app.tasks, &taskInfo{id: "app/" + s.NodeID, state: protocol.TaskRunning, nodeID: s.NodeID})
		g.markLocked(entity{entityNode, s.NodeID})
	}
	g.apps[app.id] = app
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
				// Three windows, then two, then one: each heartbeat reports a
				// window count the one before it did not.
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

// TestDepartureRacingUpdateReplay replays an update from a node whose
// departing update, announcing a deadline, arrives meanwhile, in the two
// orders the two updates' g.mu sections leave: the plain update before the
// departing one — a known node's, which upserts through its place, or a new
// node's first, which exports by reference — and after it, where it carries
// no deadline. Either way the node ends up without an offer, a heartbeat
// before the deadline adds none, and the first update past the deadline
// exports one again.
func TestDepartureRacingUpdateReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		replay func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func())
	}{
		{"the update before the departure", func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func()) {
			if _, err := g.handleUpdate(updateFrame(s)); err != nil {
				t.Fatal(err)
			}
			depart()
		}},
		{"a node's first update before the departure", func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func()) {
			s.NodeID = "n-new"
			s.LRMRef.Endpoint.Addr = "new"
			if _, err := g.handleUpdate(updateFrame(s)); err != nil {
				t.Fatal(err)
			}
			depart()
		}},
		{"the departure before the record", func(t *testing.T, g *GRM, s *protocol.NodeStatus, depart func()) {
			depart()
			if _, err := g.handleUpdate(updateFrame(s)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, clock, fleet := sweepFixture(t, 2)
			s := fleet[0]
			s.Timestamp = clock.Now()
			deadline := clock.Now().Add(30 * time.Second) // inside the offers' TTL
			tc.replay(t, g, &s, func() { depart(t, g, clock, s, deadline) })
			offers := func() int {
				n := 0
				for _, o := range g.Trader().All("") {
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
// old one as well until its TTL runs out, for placement to pick — and its next
// update re-exports that offer and adds no other.
func TestNodeMovingRefKeepsOneOffer(t *testing.T) {
	g, clock, fleet := sweepFixture(t, 1)
	s := fleet[0]
	s.LRMRef.Endpoint.Addr = "elsewhere"
	for _, when := range []string{"after the move", "after the next update"} {
		heartbeat(t, g, clock, s)
		all := g.Trader().All("")
		if len(all) != 1 || all[0].Ref != s.LRMRef || g.KnownNodes() != 1 {
			t.Fatalf("%s the trader holds %d offers (first under %v) and knows %d nodes; want one, under %v",
				when, len(all), all[0].Ref, g.KnownNodes(), s.LRMRef)
		}
		checkOneOfferPerNode(t, g, when)
	}
}

// TestDeparturesRacingUpdates runs, under -race, four goroutines that update
// 64 nodes while two send departing updates for nodes of their own picking and
// the failure sweep runs; each round starts 20 s after the last, with half the
// fleet silent past the sweep's threshold, and its departing updates announce
// deadlines one or two rounds on, so some departures end in an update of a
// later round.
// After each round every departing node has no offer and every other live node
// exactly one. `make race` runs this ten times under the race detector.
func TestDeparturesRacingUpdates(t *testing.T) {
	const nodes, updaters, departers, rounds = 64, 4, 2, 30
	g, clock, fleet := sweepFixture(t, nodes)
	for round := range rounds {
		clock.Advance(20 * time.Second)
		for i := range nodes / 2 {
			heartbeat(t, g, clock, fleet[i])
		}
		var wg sync.WaitGroup
		wg.Add(updaters + departers + 1)
		go func() {
			defer wg.Done()
			g.detectFailures()
		}()
		for w := range updaters {
			go func() {
				defer wg.Done()
				for _, i := range sim.NewRNG(int64(round*updaters + w)).Perm(nodes) {
					heartbeat(t, g, clock, fleet[i])
				}
			}()
		}
		for w := range departers {
			go func() {
				defer wg.Done()
				rng := sim.NewRNG(int64(1000 + round*departers + w))
				for _, i := range rng.Perm(nodes)[:nodes/8] {
					depart(t, g, clock, fleet[i], clock.Now().Add(time.Duration(1+rng.Intn(2))*20*time.Second))
				}
			}()
		}
		wg.Wait()
		checkOneOfferPerNode(t, g, fmt.Sprintf("round %d", round))
	}
}

// TestSweptOfferComesBack: nodes silent past the offer TTL, but not declared
// dead, lose their offers to the expiry sweep of the first write to the
// trader — another node's update — while their records still hold the
// places. Each one's next update finds its place dead and exports by
// reference again.
func TestSweptOfferComesBack(t *testing.T) {
	const nodes = 200 // the first update sweeps the other 199
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
// fifth sends departing updates from the first reference. Once they stop,
// every node that is not departing has exactly one offer, under the reference
// it last reported from, and every departing node none; once the deadlines
// pass, one update each brings every node back.
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
			depart(t, g, clock, fleet[i], deadline)
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

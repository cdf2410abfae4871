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
			deadline := clock.Now().Add(30 * time.Second)
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
// old one as well, for placement to pick — and its next
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

// TestSweptOfferComesBack: nodes silent past the failure detector's threshold
// keep their offers until the sweep that declares them dead, and lose them
// there, with their records. Each one's next update registers the node again
// and exports its offer by reference.
func TestSweptOfferComesBack(t *testing.T) {
	const nodes = 200
	g, clock, fleet := sweepFixture(t, nodes)
	clock.Advance(time.Minute)
	if got := g.KnownNodes(); got != nodes {
		t.Fatalf("the trader knows %d nodes after the silence, before the sweep, want %d", got, nodes)
	}
	g.detectFailures()
	if got, dead := g.KnownNodes(), g.Stats().NodesDeclaredDead; got != 0 || dead != nodes {
		t.Fatalf("after the sweep the trader knows %d nodes and %d were declared dead, want 0 and %d", got, dead, nodes)
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

// silentFleet is loopbackUpdates' n-node fleet on a 30-s cadence whose first
// k nodes, in its shuffled order, then fell silent: each node registered and
// updated 30 s later, the rest updated once more 61 s after that, and the
// clock is 30 s on. The k silent nodes have been silent for 91 s, past the
// detector's 90-s threshold for their cadence; the rest for 30 s.
func silentFleet(tb testing.TB, n, k int) *GRM {
	tb.Helper()
	g, client, fleet := loopbackUpdates(tb, n)
	clock := g.clock.(*sim.VirtualClock)
	for _, round := range []struct {
		wait  time.Duration
		nodes []protocol.NodeStatus
	}{{30 * time.Second, fleet}, {61 * time.Second, fleet[k:]}, {30 * time.Second, nil}} {
		clock.Advance(round.wait)
		for _, s := range round.nodes {
			s.Timestamp = clock.Now()
			if _, err := client.Update(s); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return g
}

// TestSweepWithdrawsInOneWrite: one scheduling pass whose failure detector
// declares k nodes of a fleet dead withdraws their k offers in one trader
// write: the trader's version advances by exactly one, and the trader knows k
// nodes fewer.
func TestSweepWithdrawsInOneWrite(t *testing.T) {
	const nodes, k = 500, 50
	g := silentFleet(t, nodes, k)
	v, known := g.Trader().Version(), g.KnownNodes()
	if known != nodes {
		t.Fatalf("the trader knows %d nodes before the sweep, want %d", known, nodes)
	}
	g.SchedulePending()
	if got := g.Stats().NodesDeclaredDead; got != k {
		t.Fatalf("the sweep declared %d nodes dead, want %d", got, k)
	}
	if got := g.Trader().Version(); got != v+1 {
		t.Fatalf("the sweep moved the trader's version %d -> %d, want one write", v, got)
	}
	if got := g.KnownNodes(); got != known-k {
		t.Fatalf("the trader knows %d nodes after the sweep, want %d", got, known-k)
	}
}

// TestHeardOnceJudgedAtLongestCadence: a node that fell silent after its first
// update has no cadence of its own. The adaptive detector leaves it alone
// while no node has a measured one, and otherwise judges it at the longest
// cadence measured of any node, floored like any other; a fixed threshold
// judges it as it judges every node.
func TestHeardOnceJudgedAtLongestCadence(t *testing.T) {
	status := func(i int) protocol.NodeStatus {
		return protocol.NodeStatus{
			NodeID: fmt.Sprintf("n%d", i),
			LRMRef: orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprint(i)}, Key: protocol.LRMKey},
		}
	}
	for _, c := range []struct {
		name    string
		opts    []Option
		cadence time.Duration // of node 1, which keeps reporting; 0: it too reports once
		silent  time.Duration // node 0's silence at the first sweep that buries it; 0: none does
	}{
		{"no cadence measured", nil, 0, 0},
		{"30-s fleet", nil, 30 * time.Second, 90*time.Second + time.Second},
		{"5-min fleet", nil, 5 * time.Minute, 15*time.Minute + time.Second},
		{"fixed", []Option{WithSuspectAfter(10 * time.Second)}, 0, 10*time.Second + time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			clock := sim.NewVirtualClock()
			g := New("once", clock, orb.New(), c.opts...)
			t.Cleanup(g.Stop)
			start := clock.Now()
			heartbeat(t, g, clock, status(0))
			heartbeat(t, g, clock, status(1))
			next := start.Add(c.cadence)
			for step := time.Second; clock.Now().Sub(start) < 24*time.Hour; clock.Advance(step) {
				if c.cadence > 0 && !clock.Now().Before(next) {
					heartbeat(t, g, clock, status(1))
					next = next.Add(c.cadence)
				}
				g.detectFailures()
				g.mu.Lock()
				_, alive := g.nodes["n0"]
				g.mu.Unlock()
				if silence := clock.Now().Sub(start); !alive {
					if silence != c.silent {
						t.Fatalf("node 0 was buried after %v of silence, want %v", silence, c.silent)
					}
					return
				}
			}
			if c.silent != 0 {
				t.Fatalf("node 0 was never buried, want after %v of silence", c.silent)
			}
		})
	}
}

// TestDeposedLeaderWithdrawsOffers: a leader that steps down withdraws every
// node's offer in one trader write and keeps no place: no update refreshes
// them on a follower, and the records the log sends it hold no place, so
// nothing would withdraw them later.
func TestDeposedLeaderWithdrawsOffers(t *testing.T) {
	const nodes = 20
	g, _, _ := sweepFixture(t, nodes)
	v := g.Trader().Version()
	g.FollowAt(2)
	if got := g.KnownNodes(); got != 0 || g.Trader().Version() != v+1 {
		t.Fatalf("after stepping down the trader knows %d nodes, version %d -> %d; want none, in one write", got, v, g.Trader().Version())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, lv := range g.nodes {
		if lv.place != (trading.Place{}) {
			t.Fatalf("node %s keeps a place after its offer was withdrawn", id)
		}
	}
}

package grm

import (
	"fmt"
	"testing"
	"time"

	"integrade/internal/election"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// member is a replica-set member under a consensus node of its own: a set of
// one, bootstrapped, so that the node commits every entry the member proposes
// at once and keeps it in its log. The node tells the GRM of no transition:
// the test calls LeadAt and FollowAt itself. The GRM serves on the loopback
// endpoint "m0", and entries returns every entry the log delivered, in order.
func member(t *testing.T) (g *GRM, en *election.Node, o *orb.ORB, clock *sim.VirtualClock, entries func() [][]byte) {
	t.Helper()
	clock = sim.NewVirtualClock()
	o = orb.New()
	g = New("test", clock, o)
	t.Cleanup(g.Stop)
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("m0", adapter)
	if err != nil {
		t.Fatal(err)
	}
	var log [][]byte
	en = election.NewNode(election.Config{
		ID:    "m0",
		Clock: clock,
		RNG:   sim.NewRNG(1),
		Inv:   o,
		Apply: func(index, term int, data []byte) {
			log = append(log, data)
			g.ApplyReplicaEntry(index, term, data)
		},
		Bootstrap: true,
	})
	t.Cleanup(en.Stop)
	g.UseElection(en, orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey})
	en.Start()
	return g, en, o, clock, func() [][]byte { return log }
}

// unplaceable is an application no node can run: its tasks stay pending.
func unplaceable(name string) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:         name,
		Kind:         protocol.AppParametric,
		NumTasks:     2,
		WorkPerTask:  1e6,
		Requirements: resource.Requirements{Min: resource.Vector{MIPS: 1e9}},
		Alloc:        resource.Vector{MIPS: 1e9},
	}
}

// TestCleanTakeoverProposesNothing: a follower that has applied a 10⁴-node
// fleet's membership and three applications, as a leader's stream carried
// them, takes office. The log already holds every record the follower has,
// so its first flush proposes no entry; its next write does.
func TestCleanTakeoverProposesNothing(t *testing.T) {
	g, en, _, clock, _ := member(t)
	l := New("test", sim.NewVirtualClock(), orb.New())
	defer l.Stop()
	l.mu.Lock()
	l.repl = newReplicator(l, func(data []byte) error {
		g.ApplyReplicaEntry(0, 1, data)
		return nil
	})
	l.mu.Unlock()
	fleet := missFleet(t, l, 10000)
	if err := l.repl.flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := l.Submit(unplaceable(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Stats().Members; got != len(fleet) || len(g.AppIDs()) != 3 {
		t.Fatalf("the follower holds %d members and apps %v, want %d and three", got, g.AppIDs(), len(fleet))
	}

	g.LeadAt(2)
	clock.Advance(DefaultReplicationInterval)
	if n, b := en.LogSize(); n != 0 {
		t.Fatalf("the new leader's first flush proposed %d entries, %d B; want none", n, b)
	}
	if _, err := g.Submit(unplaceable("d")); err != nil {
		t.Fatal(err)
	}
	if n, _ := en.LogSize(); n != 1 {
		t.Fatalf("a submission to the new leader proposed %d entries, want 1", n)
	}
}

// TestDeposedLeaderProposesItsUncommittedApp: a leader is deposed while it
// places a submission, so the flush that was to carry the application fails.
// As a follower it applies its successor's entry, which registers a node the
// deposed leader had registered too, uncommitted. When it leads again, its
// first flush carries its application, exactly: not the node, whose record
// the log holds.
func TestDeposedLeaderProposesItsUncommittedApp(t *testing.T) {
	g, en, o, clock, entries := member(t)
	g.LeadAt(1)
	mux := orb.NewOpMux()
	orb.Serve(mux, protocol.Reserve, func(protocol.ReserveRequest) (protocol.ReserveReply, error) {
		return protocol.ReserveReply{Granted: true, ReservationID: "r1"}, nil
	})
	orb.Serve(mux, protocol.Execute, func(protocol.ExecuteRequest) (struct{}, error) {
		g.FollowAt(2)
		return struct{}{}, nil
	})
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.LRMKey, mux); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("lrm-a", adapter)
	if err != nil {
		t.Fatal(err)
	}
	client := protocol.NewGRMClient(o, orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "m0"}, Key: protocol.GRMKey})
	update := func(id string, ref orb.ObjectRef) {
		t.Helper()
		capacity := resource.Vector{MIPS: 1000, RAMMB: 1024}
		if _, err := client.Update(protocol.NodeStatus{NodeID: id, LRMRef: ref, Dedicated: true,
			Capacity: capacity, GridFree: capacity, Timestamp: clock.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	update("n-a", orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey})
	clock.Advance(DefaultReplicationInterval) // the log holds n-a
	update("n-b", orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "lrm-b"}, Key: protocol.LRMKey})

	_, err = g.Submit(protocol.ApplicationSpec{Name: "once", Kind: protocol.AppSequential, NumTasks: 1,
		WorkPerTask: 1e6, Alloc: resource.Vector{MIPS: 1000}})
	if !orb.IsCode(err, orb.CodeTimeout) {
		t.Fatalf("a submission whose leader was deposed while placing it: %v, want a TIMEOUT", err)
	}
	ids := g.AppIDs()
	if len(ids) != 1 {
		t.Fatalf("the deposed leader holds apps %v, want one", ids)
	}

	var succ orb.Encoder
	replicaBatch{ClusterID: "test", Nodes: []nodeEntry{{id: "n-b", lv: &nodeLiveness{}}}}.encode(&succ)
	g.ApplyReplicaEntry(2, 2, succ.Bytes())
	before, _ := en.LogSize()
	g.LeadAt(3)
	clock.Advance(DefaultReplicationInterval)

	var want orb.Encoder
	g.mu.Lock()
	g.batchLocked([]entity{{entityApp, ids[0]}}).encode(&want)
	g.mu.Unlock()
	log := entries()
	if n, _ := en.LogSize(); n != before+1 {
		t.Fatalf("the leader's first flush after it led again proposed %d entries, want 1", n-before)
	}
	first := log[len(log)-1]
	if len(first) != want.Len() {
		t.Fatalf("the first flush proposed %d B, want the %d B of the application's record", len(first), want.Len())
	}
	b, err := decodeReplicaBatch(orb.NewDecoder(first))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []string
	for _, n := range b.Nodes {
		nodes = append(nodes, n.id)
	}
	if len(b.Apps) != 1 || b.Apps[0].id != ids[0] || len(nodes) != 0 {
		t.Fatalf("the first flush carried nodes %v and %d apps; want only %s", nodes, len(b.Apps), ids[0])
	}
}

// TestTakeoverFanOut10k: a follower holding 15 000 running tasks on 10⁴ LRMs
// takes office. It calls each LRM once, whatever the number of tasks there,
// in reference order, with its epoch and its own reference, and only once its
// g.mu is released, from a zero-delay timer. Each LRM is a loopback servant of
// its own.
func TestTakeoverFanOut10k(t *testing.T) {
	const lrms, tasks = 10000, 15000
	clock := sim.NewVirtualClock()
	o := orb.New()
	g := New("test", clock, o)
	t.Cleanup(g.Stop)
	self := orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "m0"}, Key: protocol.GRMKey}
	en := election.NewNode(election.Config{
		ID:    "m0",
		Peers: map[string]orb.ObjectRef{"m0": {Endpoint: self.Endpoint, Key: election.ObjectKey}},
		Clock: clock,
		RNG:   sim.NewRNG(1),
		Inv:   o,
		Apply: g.ApplyReplicaEntry,
	})
	g.UseElection(en, self)

	var called []int // the LRMs' indices, in call order
	refs := make([]orb.ObjectRef, lrms)
	for i := range refs {
		m := orb.NewOpMux()
		orb.Serve(m, protocol.Adopt, func(r protocol.AdoptRequest) (struct{}, error) {
			if r.Epoch != 2 || r.GRM != self {
				t.Errorf("lrm %d called with %+v, want epoch 2 from %v", i, r, self)
			}
			called = append(called, i)
			return struct{}{}, nil
		})
		adapter := orb.NewAdapter()
		if err := adapter.Register(protocol.LRMKey, m); err != nil {
			t.Fatal(err)
		}
		ep, err := o.BindLoopback(fmt.Sprintf("lrm%05d", i), adapter)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}
	}
	g.mu.Lock()
	for a := range tasks / 100 {
		app := &appInfo{id: fmt.Sprintf("app%03d", a), seq: a + 1}
		for k := range 100 {
			i := (a*100 + k) % lrms
			app.tasks = append(app.tasks, &taskInfo{id: fmt.Sprintf("%s/t%d", app.id, k),
				state: protocol.TaskRunning, nodeID: fmt.Sprint(i), lrm: refs[i]})
		}
		g.apps[app.id] = app
	}
	g.mu.Unlock()

	start, wall := clock.Now(), time.Now()
	g.LeadAt(2)
	if len(called) > 0 {
		t.Fatalf("%d LRMs called before LeadAt returned", len(called))
	}
	clock.Advance(0)
	elapsed := time.Since(wall)
	t.Logf("%d LRMs called for %d running tasks: %v of sim time, %v of wall time", lrms, tasks, clock.Now().Sub(start), elapsed)
	for i, got := range called {
		if got != i {
			t.Fatalf("call %d went to lrm %d, want lrm %d: each once, in reference order", i, got, i)
		}
	}
	if len(called) != lrms {
		t.Fatalf("%d calls, want %d", len(called), lrms)
	}
}

// heldTimers counts the timers g holds.
func heldTimers(g *GRM) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, t := range []sim.TimerSlot{g.sched, g.adopt} {
		if t != (sim.TimerSlot{}) {
			n++
		}
	}
	return n
}

// TestTimersBoundedByLoops: a GRM holds at most one timer per loop. In a sim
// day it runs 2 880 scheduling passes and takes office 24 times, each time
// arming its calls to the LRMs. Stop cancels them, and Start after Stop runs
// the scheduler again.
func TestTimersBoundedByLoops(t *testing.T) {
	g, _, _, clock, _ := member(t)
	for term := 1; term <= 48; term += 2 {
		g.LeadAt(term)
		clock.Advance(30 * time.Minute)
		g.FollowAt(term + 1)
		clock.Advance(30 * time.Minute)
	}
	if n := heldTimers(g); n > 2 {
		t.Fatalf("%d timers held after a sim day, want at most 2, one a loop", n)
	}
	g.Stop()
	if n := heldTimers(g); n != 0 {
		t.Fatalf("%d timers held after Stop", n)
	}
	g.Start()
	clock.Advance(24 * time.Hour)
	if n := heldTimers(g); n != 1 {
		t.Fatalf("%d timers held a day after a restart, want the scheduler's", n)
	}
}

package grm

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"integrade/internal/election"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// TestPromotionBatchSize10k measures the full-state batch a leader proposes
// when it takes office (LeadAt marks every node and every app) for a GRM
// that has learned loopbackUpdates' 10⁴-node fleet through GRMClient.Update,
// windows included. A bounded AppendEntries splits a log into runs of
// entries but sends an entry whole, so this one entry has to fit an ORB frame
// (64 MiB) on its own. The batch carries the fleet's membership, not its
// statuses (2 131 894 B when it did): the test fails above 256 KiB.
func TestPromotionBatchSize10k(t *testing.T) {
	const (
		frameLimit = 64 << 20 // the ORB's largest frame
		bound      = 256 << 10
	)
	_, fleet := loopbackUpdates(t, 10000)
	g, client, stop := loopbackGRM(t)
	defer stop()
	for i := range fleet {
		if _, err := client.Update(fleet[i]); err != nil {
			t.Fatal(err)
		}
	}

	var e orb.Encoder
	g.mu.Lock()
	var ents []entity
	for id := range g.nodes {
		ents = append(ents, entity{entityNode, id})
	}
	for id := range g.apps {
		ents = append(ents, entity{entityApp, id})
	}
	slices.SortFunc(ents, func(a, b entity) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	})
	nodes := len(g.nodes)
	g.batchLocked(ents).encode(&e)
	g.mu.Unlock()

	if nodes != len(fleet) {
		t.Fatalf("the GRM learned %d of %d nodes", nodes, len(fleet))
	}
	size := e.Len()
	t.Logf("promotion batch over %d nodes: %d B (%.1f MiB, %.0f B a node, %.1f%% of a frame)",
		nodes, size, float64(size)/(1<<20), float64(size)/float64(nodes), 100*float64(size)/frameLimit)
	if size > bound {
		t.Fatalf("promotion batch is %d B, past its %d B bound", size, bound)
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

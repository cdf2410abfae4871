package grm_test

import (
	"testing"
	"time"

	"integrade/internal/election"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// replicaSet is a consensus-managed GRM replica set on one loopback ORB:
// every member hosts its GRM servant and its election servant on the same
// adapter, and role transitions flow from the election node into the GRM.
type replicaSet struct {
	clock *sim.VirtualClock
	o     *orb.ORB
	grms  []*grm.GRM
	refs  []orb.ObjectRef // GRM refs, index-aligned with grms
}

func newReplicaSet(t *testing.T, n int, opts ...grm.Option) *replicaSet {
	t.Helper()
	clock := sim.NewVirtualClock()
	o := orb.New()
	rs := &replicaSet{clock: clock, o: o}

	ids := make([]string, n)
	adapters := make([]*orb.Adapter, n)
	peers := make(map[string]orb.ObjectRef, n)
	for i := 0; i < n; i++ {
		ids[i] = "m" + string(rune('0'+i))
		adapters[i] = orb.NewAdapter()
		ep, err := o.BindLoopback(ids[i], adapters[i])
		if err != nil {
			t.Fatal(err)
		}
		peers[ids[i]] = orb.ObjectRef{Endpoint: ep, Key: election.ObjectKey}
		rs.refs = append(rs.refs, orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey})
	}

	var nodes []*election.Node
	for i := 0; i < n; i++ {
		g := grm.New("test", clock, o, append([]grm.Option{
			grm.WithSchedulePeriod(15 * time.Second),
			grm.WithReplicationInterval(5 * time.Second),
		}, opts...)...)
		en := election.NewNode(election.Config{
			ID:         ids[i],
			Peers:      peers,
			Clock:      clock,
			RNG:        sim.NewRNG(int64(40 + i)),
			Inv:        o,
			Apply:      g.ApplyReplicaEntry,
			OnLeader:   g.LeadAt,
			OnFollower: func(term int, leader string) { g.FollowAt(term) },
			Bootstrap:  i == 0,
		})
		g.UseElection(en)
		if err := adapters[i].Register(protocol.GRMKey, g.Servant()); err != nil {
			t.Fatal(err)
		}
		if err := adapters[i].Register(election.ObjectKey, en.Servant()); err != nil {
			t.Fatal(err)
		}
		rs.grms = append(rs.grms, g)
		nodes = append(nodes, en)
		t.Cleanup(g.Stop)
		t.Cleanup(en.Stop)
	}
	// Followers first so the bootstrap leader's opening round reaches them.
	for i := n - 1; i >= 0; i-- {
		nodes[i].Start()
	}
	return rs
}

func (rs *replicaSet) leaderIdx(t *testing.T) int {
	t.Helper()
	idx := -1
	for i, g := range rs.grms {
		if g.Role() == grm.RolePrimary {
			if idx >= 0 {
				t.Fatalf("two primaries: %d and %d", idx, i)
			}
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no primary in replica set")
	}
	return idx
}

// leader returns the package's test harness around the current leader, so
// the cluster helpers (bindFakeLRM, windowStatus, update) drive it.
func (rs *replicaSet) leader(t *testing.T) *cluster {
	t.Helper()
	i := rs.leaderIdx(t)
	return &cluster{t: t, clock: rs.clock, o: rs.o, g: rs.grms[i], grmRef: rs.refs[i]}
}

// failover kills member i — its election node and its GRM — waits a minute
// and returns the one member the survivors elected in its place.
func (rs *replicaSet) failover(t *testing.T, i int) *grm.GRM {
	t.Helper()
	rs.grms[i].Election().Stop()
	rs.grms[i].Stop()
	rs.clock.Advance(time.Minute)
	var next *grm.GRM
	for j, g := range rs.grms {
		if j != i && g.Role() == grm.RolePrimary {
			if next != nil {
				t.Fatal("two successors elected")
			}
			next = g
		}
	}
	if next == nil {
		t.Fatal("no successor elected")
	}
	return next
}

// TestElectionReplicaSetFailover drives the consensus control plane end to
// end: the bootstrap member leads term 1 and fences its writes with it, state
// reaches the followers only through quorum-acked log entries, and killing
// the leader yields exactly one successor at a higher term with the state
// intact.
func TestElectionReplicaSetFailover(t *testing.T) {
	rs := newReplicaSet(t, 3)
	g0 := rs.grms[0]
	if got := rs.leaderIdx(t); got != 0 {
		t.Fatalf("bootstrap leader = m%d", got)
	}
	if got := g0.Epoch(); got != 1 {
		t.Fatalf("leader epoch = %d, want 1", got)
	}

	// A follower refuses Information Update messages so LRMs re-resolve.
	if _, err := protocol.NewGRMClient(rs.o, rs.refs[1]).Update(protocol.NodeStatus{NodeID: "n0"}); err == nil {
		t.Fatal("follower accepted an update")
	}
	if got := rs.grms[1].Stats().UpdatesRefused; got != 1 {
		t.Fatalf("UpdatesRefused = %d, want 1", got)
	}

	// State flows leader -> quorum log -> followers.
	id, err := protocol.NewGRMClient(rs.o, rs.refs[0]).Submit(sequentialSpec("quorum-app", 600_000))
	if err != nil {
		t.Fatal(err)
	}
	rs.clock.Advance(15 * time.Second)
	if got := g0.Stats().QuorumBatches; got < 1 {
		t.Fatalf("leader QuorumBatches = %d", got)
	}
	for i := 1; i < 3; i++ {
		if _, err := rs.grms[i].AppStatus(id); err != nil {
			t.Fatalf("follower m%d missing app: %v", i, err)
		}
		if got := rs.grms[i].Stats().ReplicaBatches; got < 1 {
			t.Fatalf("follower m%d ReplicaBatches = %d", i, got)
		}
	}

	// Kill the leader; the survivors elect exactly one successor.
	ng := rs.failover(t, 0)
	if got := ng.Epoch(); got < 2 {
		t.Fatalf("successor epoch = %d, want >= 2", got)
	}
	if got := ng.Stats().Promotions; got != 1 {
		t.Fatalf("successor Promotions = %d, want 1", got)
	}
	if _, err := ng.AppStatus(id); err != nil {
		t.Fatalf("successor lost app: %v", err)
	}

	// At most one leader per term across the whole set.
	won := map[int]string{}
	for i, g := range rs.grms {
		en := g.Election()
		for _, term := range en.WonTerms() {
			if other, dup := won[term]; dup {
				t.Fatalf("term %d won by both %s and m%d", term, other, i)
			}
			won[term] = en.ID()
		}
	}
}

// TestBootstrapMemberCommitsInTermOne pins the one ordering rule of a fresh
// replica set: New already makes a GRM primary of term 1, so UseElection must
// turn it into a follower, or the bootstrap member's LeadAt(1) would find
// itself leading that term already and install no replication stream. The
// first flushes must commit in term 1, on every member.
func TestBootstrapMemberCommitsInTermOne(t *testing.T) {
	rs := newReplicaSet(t, 3)
	g0 := rs.grms[0]
	if g0.Role() != grm.RolePrimary || g0.Epoch() != 1 {
		t.Fatalf("bootstrap member: role %v, epoch %d; want primary of term 1", g0.Role(), g0.Epoch())
	}
	if got := g0.Stats().Promotions; got != 1 {
		t.Fatalf("bootstrap Promotions = %d, want 1 (follower → leader of term 1)", got)
	}
	rs.clock.Advance(15 * time.Second)
	for i, g := range rs.grms {
		if got := g.Stats().QuorumBatches; got < 1 {
			t.Fatalf("m%d QuorumBatches = %d after three flushes, want >= 1", i, got)
		}
		if got := g.Epoch(); got != 1 {
			t.Fatalf("m%d epoch = %d, want 1", i, got)
		}
	}
}

package grm_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"integrade/internal/election"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
	"integrade/internal/testutil/seeds"
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
		g := grm.New("test", clock, o, append([]grm.Option{grm.WithSchedulePeriod(15 * time.Second)}, opts...)...)
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

// TestReplicaFollowersMatchLeader drives a seeded mix of submissions,
// heartbeats, task events (stale ones included), departures, cancellations
// and node deaths into a replica set's leader. After every committed flush
// each follower must hold what the leader holds: every application's status,
// the same node offers, and the same admission queue. The seed picks the
// mix.
func TestReplicaFollowersMatchLeader(t *testing.T) {
	seeds.Run(t, replicaFollowersMatchLeader)
}

func replicaFollowersMatchLeader(t *testing.T, seed int64) {
	rng := sim.NewRNG(seed)
	// The test runs every scheduling pass itself, so that between two steps
	// the state changes only through a flush.
	rs := newReplicaSet(t, 3, grm.WithSchedulePeriod(24*time.Hour),
		grm.WithSuspectAfter(30*time.Second), grm.WithOfferTTL(time.Hour))
	c := rs.leader(t)
	names := []string{"eq-0", "eq-1", "eq-2", "eq-3", "eq-4"}
	refs := make([]orb.ObjectRef, len(names))
	silent := make([]bool, len(names))
	for i, name := range names {
		// Two nodes fill up and start refusing: a Reserve that places nothing.
		maxGrants := 0
		if i < 2 {
			maxGrants = 10
		}
		_, refs[i] = bindFakeLRM(t, c, name, maxGrants)
	}
	// A node misses a step's heartbeat now and then, so that a departure or
	// a task event is sometimes the only news of it in a flush.
	heartbeats := func(p float64) {
		for i, name := range names {
			if !silent[i] && rng.Bool(p) {
				c.update(windowStatus(c, name, refs[i], 1000))
			}
		}
	}
	heartbeats(1)
	// Each step ends 3 s after the leader's flush: a follower applies an
	// entry once a heartbeat (every 2 s) tells it the entry is committed.
	rs.clock.Advance(3 * time.Second)

	for step := 0; step < 60; step++ {
		for op := 0; op < 3; op++ {
			apps := c.g.AppIDs()
			switch k := rng.Intn(10); {
			case k <= 2:
				spec := bag(1+rng.Intn(3), 1e9)
				if rng.Bool(0.3) {
					spec.Kind, spec.NumTasks = protocol.AppBSP, 2
				}
				spec.RestartEvicted = rng.Bool(0.7)
				spec.CheckpointEveryWork = 100
				if _, err := c.g.Submit(spec); err != nil {
					t.Fatal(err)
				}
			case k <= 5 && len(apps) > 0:
				st := c.status(sim.Pick(rng, apps))
				task := sim.Pick(rng, st.Tasks)
				ev := protocol.TaskEvent{
					Kind:     sim.Pick(rng, []protocol.TaskEventKind{protocol.TaskEventDone, protocol.TaskEventEvicted, protocol.TaskEventDrained, protocol.TaskEventProgress}),
					AppID:    st.AppID,
					TaskID:   task.TaskID,
					NodeID:   task.NodeID,
					Progress: float64(rng.Intn(1000)),
					At:       c.clock.Now(),
				}
				if rng.Bool(0.2) {
					ev.NodeID = sim.Pick(rng, names) // possibly stale
				}
				c.g.HandleNotify(ev)
			case k == 6:
				c.g.HandleDeparting(protocol.DepartureNotice{
					NodeID:   sim.Pick(rng, names),
					Deadline: c.clock.Now().Add(time.Duration(1+rng.Intn(4)) * 30 * time.Second),
					At:       c.clock.Now(),
				})
			case k == 7 && len(apps) > 0 && rng.Bool(0.5):
				if err := c.g.CancelApp(sim.Pick(rng, apps)); err != nil {
					t.Fatal(err)
				}
			case k >= 8:
				i := rng.Intn(len(names))
				silent[i] = !silent[i] // a death, once the detector notices; or a restart
			}
		}
		c.g.SchedulePending()
		heartbeats(0.7)
		rs.clock.Advance(5 * time.Second)
		for i, f := range rs.grms {
			if f != c.g {
				assertMirrors(t, step, i, c.g, f)
			}
		}
	}
}

// assertMirrors fails t unless follower f holds what leader l holds.
func assertMirrors(t *testing.T, step, i int, l, f *grm.GRM) {
	t.Helper()
	ids := l.AppIDs()
	if got := f.AppIDs(); !slices.Equal(got, ids) {
		t.Fatalf("step %d: m%d apps %v, leader %v", step, i, got, ids)
	}
	for _, id := range ids {
		want, _ := l.AppStatus(id)
		got, err := f.AppStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []*protocol.AppStatus{&want, &got} {
			st.Submitted, st.Finished = st.Submitted.UTC(), st.Finished.UTC()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: m%d status of %s:\n got %+v\nwant %+v", step, i, id, got, want)
		}
	}
	offers := func(g *grm.GRM) []string {
		var refs []string
		for _, o := range g.Trader().All("") {
			refs = append(refs, o.Ref.String())
		}
		slices.Sort(refs)
		return refs
	}
	if got, want := offers(f), offers(l); f.KnownNodes() != l.KnownNodes() || !slices.Equal(got, want) {
		t.Fatalf("step %d: m%d offers %v, leader %v", step, i, got, want)
	}
	if got, want := grm.QueuedIDs(f), grm.QueuedIDs(l); !slices.Equal(got, want) {
		t.Fatalf("step %d: m%d admission queue %v, leader %v", step, i, got, want)
	}
	// A synchronous Submit drains the queue before it returns, so the
	// admission counters are what shows a follower the queue's history.
	counters := func(g *grm.GRM) [6]int {
		s := g.Stats()
		return [...]int{s.AdmissionQueued, s.AdmissionRejected, s.AdmissionQueueDepth,
			s.AdmissionPeakDepth, s.SchedulerBatches, s.MaxBatchSize}
	}
	if got, want := counters(f), counters(l); got != want {
		t.Fatalf("step %d: m%d admission counters %v, leader %v", step, i, got, want)
	}
}

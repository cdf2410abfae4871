package grm_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"integrade/internal/chaos"
	"integrade/internal/election"
	"integrade/internal/grm"
	"integrade/internal/hierarchy"
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
		g.UseElection(en, rs.refs[i])
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
// first flushes, carrying one application, must commit in term 1, on every
// member.
func TestBootstrapMemberCommitsInTermOne(t *testing.T) {
	rs := newReplicaSet(t, 3)
	g0 := rs.grms[0]
	if g0.Role() != grm.RolePrimary || g0.Epoch() != 1 {
		t.Fatalf("bootstrap member: role %v, epoch %d; want primary of term 1", g0.Role(), g0.Epoch())
	}
	if got := g0.Stats().Promotions; got != 1 {
		t.Fatalf("bootstrap Promotions = %d, want 1 (follower → leader of term 1)", got)
	}
	rs.leader(t).submit(hourTask("first"))
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
// each follower must hold what the leader holds: every application's status
// but its tasks' progress, and the same node membership and departure
// deadlines. Then the leader dies,
// and once every node's next update has reached the successor, its offers are
// the ones the leader held. The seed picks the mix.
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
				// A silent node announces nothing.
				i := rng.Intn(len(names))
				deadline := c.clock.Now().Add(time.Duration(1+rng.Intn(4)) * 30 * time.Second)
				if !silent[i] {
					c.update(departing(windowStatus(c, names[i], refs[i], 1000), deadline))
				}
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

	// Every node reports past the last departure deadline, so that the
	// leader offers all of them; the successor learns each offer from the
	// node's next update.
	clear(silent)
	for range 10 {
		heartbeats(1)
		rs.clock.Advance(15 * time.Second)
	}
	want := offerRefs(c.g)
	succ := &cluster{t: t, clock: rs.clock, o: rs.o}
	succ.g = rs.failover(t, rs.leaderIdx(t))
	succ.grmRef = rs.refs[slices.Index(rs.grms, succ.g)]
	c = succ
	heartbeats(1)
	if got := offerRefs(succ.g); len(want) != len(names) || !slices.Equal(got, want) {
		t.Fatalf("successor offers %v, the old leader's %v", got, want)
	}
}

// offerRefs returns the references of g's offers, sorted.
func offerRefs(g *grm.GRM) []string {
	var refs []string
	for _, o := range g.Trader().All("") {
		refs = append(refs, o.Ref.String())
	}
	slices.Sort(refs)
	return refs
}

// assertMirrors fails t unless follower f holds what leader l holds. A task's
// progress is soft state its LRM re-tells: a follower holds the progress of
// the task's last transition, and it is not compared.
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
			for i := range st.Tasks {
				st.Tasks[i].Progress = 0
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: m%d status of %s:\n got %+v\nwant %+v", step, i, id, got, want)
		}
	}
	if got, want := grm.Members(f), grm.Members(l); !maps.Equal(got, want) {
		t.Fatalf("step %d: m%d members %v, leader %v", step, i, got, want)
	}
}

// TestQuorumlessLeaderRefusesWrites cuts the answers of both followers to the
// leader's heartbeats (the heartbeats still arrive, 100 ms late, so neither
// follower campaigns). A submission right after the cut is answered with an
// error naming no leader, since its application cannot commit, and the leader
// cancels the application it took, a cancellation the followers hold once the
// answers come back. Within
// TimeoutMin plus one heartbeat of the last acknowledgement the leader
// refuses updates and submissions, naming no leader and taking no
// application; once the answers come back it accepts them again, in the same
// term.
func TestQuorumlessLeaderRefusesWrites(t *testing.T) {
	rs := newReplicaSet(t, 3)
	engine := chaos.NewEngine(rs.clock, sim.NewRNG(1))
	rs.o.SetInterceptor(engine)
	g0, client := rs.grms[0], protocol.NewGRMClient(rs.o, rs.refs[0])
	status := protocol.NodeStatus{NodeID: "n0", Dedicated: true}
	update := func() error {
		status.Timestamp = rs.clock.Now()
		_, err := client.Update(status)
		return err
	}
	submit := func() error {
		_, err := client.Submit(bag(1, 1e6))
		return err
	}
	refused := func(what string, err error) {
		t.Helper()
		if _, fwd := orb.Forwarded(err); err == nil || fwd {
			t.Fatalf("%s: %v; want a refusal naming no leader", what, err)
		}
	}
	// The heartbeats go out every 2 s from the bootstrap round at 0 s: the
	// cut comes 1 s after the last one answered.
	rs.clock.Advance(3 * time.Second)
	if u, s := update(), submit(); u != nil || s != nil {
		t.Fatalf("leader with its quorum: update %v, submit %v", u, s)
	}
	var faults []int
	for _, m := range []string{"m1", "m2"} {
		faults = append(faults, engine.AddFault(chaos.MessageFault{
			Match: chaos.Match{Addr: m, Key: election.ObjectKey}, Delay: 1, DelayBy: 100 * time.Millisecond,
		}))
	}
	before := g0.AppIDs()
	refused("a submission right after the cut", submit())
	var cut string // the application the refused submission took
	for _, id := range g0.AppIDs() {
		if !slices.Contains(before, id) {
			cut = id
		}
	}
	if st, err := g0.AppStatus(cut); err != nil || !allCancelled(st) {
		t.Fatalf("the refused submission's application %q on the leader: %+v, %v; want it cancelled", cut, st, err)
	}
	const step = 100 * time.Millisecond
	sinceAck := time.Second
	var u error
	for ; sinceAck <= time.Minute; sinceAck += step {
		rs.clock.Advance(step)
		if u = update(); u != nil {
			break
		}
	}
	refused(fmt.Sprintf("an update %v after the last acknowledgement", sinceAck), u)
	if limit := election.DefaultTimeoutMin + election.DefaultHeartbeat; sinceAck > limit {
		t.Fatalf("updates refused %v after the last acknowledgement, want within %v", sinceAck, limit)
	}
	apps := len(g0.AppIDs())
	refused("a submission once updates are refused", submit())
	rs.clock.Advance(time.Minute)
	refused("an update a minute on", update())
	refused("a submission a minute on", submit())
	if got := len(g0.AppIDs()); got != apps {
		t.Fatalf("the leader took %d applications without a quorum", got-apps)
	}

	for _, id := range faults {
		engine.RemoveFault(id)
	}
	rs.clock.Advance(election.DefaultHeartbeat + step)
	if u, s := update(), submit(); u != nil || s != nil {
		t.Fatalf("after the heal: update %v, submit %v", u, s)
	}
	if rs.leaderIdx(t) != 0 || g0.Epoch() != 1 {
		t.Fatalf("after the heal: leader m%d, epoch %d; want m0 in term 1", rs.leaderIdx(t), g0.Epoch())
	}
	rs.clock.Advance(grm.DefaultReplicationInterval + election.DefaultHeartbeat)
	for i, f := range rs.grms[1:] {
		if st, err := f.AppStatus(cut); err != nil || !allCancelled(st) {
			t.Fatalf("m%d after the heal holds %q as %+v, %v; want it cancelled", i+1, cut, st, err)
		}
	}
}

func allCancelled(st protocol.AppStatus) bool {
	for _, task := range st.Tasks {
		if task.State != protocol.TaskCancelled {
			return false
		}
	}
	return len(st.Tasks) > 0
}

// TestDeposedSubmitStaysInItsCluster: a leader deposed while it places a
// submission cannot tell whether an earlier flush committed the application,
// so it answers CodeTimeout and leaves the application running, and the
// hierarchy node in front of it tries no other cluster, which would run the
// application a second time.
func TestDeposedSubmitStaysInItsCluster(t *testing.T) {
	rs := newReplicaSet(t, 3)
	c := rs.leader(t)
	g0 := c.g
	f, ref := bindFakeLRM(t, c, "lrm-a", 0)
	f.onExecute = func() { g0.FollowAt(g0.Epoch() + 1) }
	c.update(windowStatus(c, "n-a", ref, 1000))

	g2 := grm.New("c2", rs.clock, rs.o)
	t.Cleanup(g2.Stop)
	h2 := hierarchy.NewNode(g2, rs.o)
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g2.Servant()); err != nil {
		t.Fatal(err)
	}
	if err := adapter.Register(hierarchy.ObjectKey, h2.Servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := rs.o.BindLoopback("mgr-c2", adapter)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &cluster{t: t, clock: rs.clock, o: rs.o, g: g2, grmRef: orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}}
	_, refB := bindFakeLRM(t, c2, "lrm-b", 0)
	c2.update(windowStatus(c2, "n-b", refB, 1000))
	h := hierarchy.NewNode(g0, rs.o)
	h.AddChild("c2", orb.ObjectRef{Endpoint: ep, Key: hierarchy.ObjectKey})

	_, err = h.Submit(hourTask("once"))
	if !orb.IsCode(err, orb.CodeTimeout) {
		t.Fatalf("a submission whose leader was deposed while placing it: %v, want a TIMEOUT", err)
	}
	if ids := g2.AppIDs(); len(ids) != 0 {
		t.Fatalf("the hierarchy also placed it in c2: %v", ids)
	}
	ids := g0.AppIDs()
	if len(ids) != 1 || f.executeCount() != 1 {
		t.Fatalf("the deposed leader holds %v and its node ran %d tasks; want the one application, running", ids, f.executeCount())
	}
	if st, _ := g0.AppStatus(ids[0]); st.Tasks[0].State != protocol.TaskRunning {
		t.Fatalf("the deposed leader's application: %+v, want running", st.Tasks)
	}
}

// TestIdleReplicaSetAppendsNothing: once the leader's first flush has carried
// its one application, which no node can run, a replica set that no client
// writes to proposes no entry.
func TestIdleReplicaSetAppendsNothing(t *testing.T) {
	rs := newReplicaSet(t, 3)
	rs.leader(t).submit(hourTask("waits"))
	rs.clock.Advance(10 * time.Second)
	before := rs.grms[0].Stats().QuorumBatches
	if before < 1 {
		t.Fatal("the leader's first flush committed nothing")
	}
	rs.clock.Advance(time.Hour)
	if got := rs.grms[0].Stats().QuorumBatches - before; got != 0 {
		t.Fatalf("an idle replica set appended %d log entries in an hour, want 0", got)
	}
}

// TestSuccessorContinuesAppIDs: the log carries neither the admission queue
// nor the app ID counter. Two applications submitted while no node has
// reported wait in the leader's queue when it crashes; once nodes report to
// the successor, it places both, and it numbers the next application after
// the last one the log holds.
func TestSuccessorContinuesAppIDs(t *testing.T) {
	rs := newReplicaSet(t, 3, grm.WithAsyncAdmission())
	c := rs.leader(t)
	for _, name := range []string{"first", "second"} {
		c.submit(hourTask(name))
	}
	succ := &cluster{t: t, clock: rs.clock, o: rs.o}
	succ.g = rs.failover(t, rs.leaderIdx(t))
	succ.grmRef = rs.refs[slices.Index(rs.grms, succ.g)]
	var lrms []*fakeLRM
	for _, name := range []string{"a", "b"} {
		f, ref := bindFakeLRM(t, succ, "lrm-"+name, 0)
		succ.update(windowStatus(succ, "n-"+name, ref, 1000))
		lrms = append(lrms, f)
	}
	rs.clock.Advance(15 * time.Second)

	ids := succ.g.AppIDs()
	if !slices.Equal(ids, []string{"test-app-1", "test-app-2"}) {
		t.Fatalf("successor apps %v, want test-app-1 and test-app-2", ids)
	}
	for _, id := range ids {
		if st := succ.status(id); st.Tasks[0].State != protocol.TaskRunning {
			t.Fatalf("%s: %+v, want running", id, st.Tasks)
		}
	}
	if got := lrms[0].executeCount() + lrms[1].executeCount(); got != 2 {
		t.Fatalf("the nodes ran %d tasks, want 2", got)
	}
	if id := succ.submit(hourTask("third")); id != "test-app-3" {
		t.Fatalf("the successor's next app is %s, want test-app-3", id)
	}
}

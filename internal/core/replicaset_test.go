package core

import (
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/testutil/seeds"
)

// replicaGrid builds the consensus-suite fixture: one cluster whose
// management plane runs as a three-member replica set, four dedicated nodes
// and chaos armed. The long suspect and
// offer-TTL horizons keep the managers' failure detectors out of the way so
// the tests observe election and fencing behaviour, not liveness timeouts.
func replicaGrid(t *testing.T, seed int64) (*Grid, *Cluster) {
	t.Helper()
	g := NewGrid(WithSeed(seed))
	c, err := g.AddCluster("c1",
		WithReplicaSet(3),
		WithSchedulePeriod(15*time.Second),
		WithUpdatePeriod(15*time.Second),
		WithGRMOptions(
			grm.WithSuspectAfter(10*time.Minute),
			grm.WithOfferTTL(10*time.Minute)))
	if err != nil {
		g.Stop()
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		g.Stop()
		t.Fatal(err)
	}
	g.EnableChaos(seed)
	return g, c
}

// replicaGRMs returns the GRMs of the cluster's replica set in member order.
func (c *Cluster) replicaGRMs() []*grm.GRM {
	out := make([]*grm.GRM, 0, len(c.replicas))
	for _, m := range c.replicas {
		out = append(out, m.grm)
	}
	return out
}

// primaries counts RolePrimary members of the replica set, skipping the
// explicitly excluded (crashed) one whose role is frozen at death.
func primaries(c *Cluster, exclude *grm.GRM) (int, *grm.GRM) {
	n, last := 0, (*grm.GRM)(nil)
	for _, r := range c.replicaGRMs() {
		if r == exclude {
			continue
		}
		if r.Role() == grm.RolePrimary {
			n++
			last = r
		}
	}
	return n, last
}

// assertTermsDisjoint fails the test if any election term was won by two
// members — the core single-leader-per-term safety property.
func assertTermsDisjoint(t *testing.T, c *Cluster) {
	t.Helper()
	won := make(map[int]string)
	for _, r := range c.replicaGRMs() {
		en := r.Election()
		if en == nil {
			continue
		}
		for _, term := range en.WonTerms() {
			if prev, dup := won[term]; dup && prev != en.ID() {
				t.Fatalf("term %d won by both %s and %s", term, prev, en.ID())
			}
			won[term] = en.ID()
		}
	}
}

// TestReplicaSetMirrorsIncumbentState: in a replica set born with its
// cluster, the incumbent is the first member. It bootstraps term 1 over an
// empty state and leads it, and every follower mirrors what its log then
// carries: the fleet's membership and an application submitted to the set.
// The offers stay the leader's.
func TestReplicaSetMirrorsIncumbentState(t *testing.T) {
	seeds.Run(t, replicaSetMirrorsIncumbentState)
}

func replicaSetMirrorsIncumbentState(t *testing.T, seed int64) {
	g := NewGrid(WithSeed(seed))
	defer g.Stop()
	c, err := g.AddCluster("c1", WithReplicaSet(3), WithSchedulePeriod(15*time.Second), WithUpdatePeriod(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	incumbent := c.GRM()
	if _, err := c.AddNodes(DedicatedNodes(3, 1000)); err != nil {
		t.Fatal(err)
	}
	h, err := g.SubmitTo("c1", asct.NewApplication("before").
		Parametric(3, 600_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if c.GRM() != incumbent || incumbent.Role() != grm.RolePrimary || incumbent.Epoch() != 1 {
		t.Fatalf("incumbent: active %v, role %v, epoch %d; want the primary of term 1",
			c.GRM() == incumbent, incumbent.Role(), incumbent.Epoch())
	}
	if got := incumbent.Stats().QuorumBatches; got < 1 {
		t.Fatalf("incumbent QuorumBatches = %d, want >= 1", got)
	}
	want, err := incumbent.AppStatus(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := incumbent.KnownNodes(); got != 3 {
		t.Fatalf("incumbent KnownNodes = %d, want 3", got)
	}
	for _, r := range c.replicaGRMs()[1:] {
		if r.Role() != grm.RoleFollower {
			t.Fatalf("member role = %v, want follower", r.Role())
		}
		if got := r.Stats().Members; got != 3 {
			t.Fatalf("follower Members = %d, want 3", got)
		}
		st, err := r.AppStatus(h.ID())
		if err != nil {
			t.Fatalf("follower lacks the incumbent's app: %v", err)
		}
		for i, task := range st.Tasks {
			if task.NodeID != want.Tasks[i].NodeID || task.State != want.Tasks[i].State {
				t.Fatalf("follower task %d = %+v, leader has %+v", i, task, want.Tasks[i])
			}
		}
	}
	// A cold manager would lead term 1 under LRMs that follow the elected
	// term, so a replica set is never rebuilt from cold.
	if err := g.RestartGRM("c1"); err == nil {
		t.Fatal("RestartGRM rebuilt a replica set's manager from cold")
	}
}

// TestConsensusFailoverOnLeaderCrash crashes the elected leader mid-run: the
// surviving quorum must elect a successor, the grid must swap it in as the
// cluster's active manager, and the quorum-replicated application state must
// carry every in-flight task through to completion — zero losses, zero
// orphans reaped.
func TestConsensusFailoverOnLeaderCrash(t *testing.T) {
	seeds.Run(t, consensusFailoverOnLeaderCrash)
}

func consensusFailoverOnLeaderCrash(t *testing.T, seed int64) {
	g, c := replicaGrid(t, seed)
	defer g.Stop()

	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader := c.GRM()
	if leader.Role() != grm.RolePrimary || leader.Epoch() != 1 {
		t.Fatalf("bootstrap leader: role=%v epoch=%d", leader.Role(), leader.Epoch())
	}
	if n, _ := primaries(c, nil); n != 1 {
		t.Fatalf("primaries = %d, want 1", n)
	}

	// Four 10-minute tasks, one per node, quorum-replicated as they place.
	appID, err := leader.Submit(protocol.ApplicationSpec{
		Name:        "inflight",
		Kind:        protocol.AppParametric,
		NumTasks:    4,
		WorkPerTask: 300_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := leader.Stats().QuorumBatches; got < 1 {
		t.Fatalf("QuorumBatches on leader = %d, want >= 1", got)
	}

	if err := g.CrashGRM("c1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	succ := c.GRM()
	if succ == leader {
		t.Fatal("active manager did not change after leader crash")
	}
	if succ.Role() != grm.RolePrimary {
		t.Fatalf("successor role = %v", succ.Role())
	}
	if succ.Epoch() < 2 {
		t.Fatalf("successor epoch = %d, want >= 2", succ.Epoch())
	}
	if got := succ.Stats().Promotions; got != 1 {
		t.Fatalf("successor Promotions = %d, want 1", got)
	}
	if n, p := primaries(c, leader); n != 1 || p != succ {
		t.Fatalf("primaries among survivors = %d (active match %v)", n, p == succ)
	}
	found := false
	for _, id := range succ.AppIDs() {
		if id == appID {
			found = true
		}
	}
	if !found {
		t.Fatalf("successor lost the replicated app: %v", succ.AppIDs())
	}

	// The in-flight work must finish under the successor: the LRMs keep the
	// tasks running, re-register through Naming, and report completions to
	// the new leader. Quorum mode loses nothing.
	if err := g.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := succ.AppStatus(appID)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range st.Tasks {
		if task.State != protocol.TaskDone {
			t.Fatalf("task %s = %v after consensus failover", task.TaskID, task.State)
		}
	}
	orphans := 0
	for _, l := range c.LRMs() {
		ls := l.Stats()
		if ls.Reregistrations < 1 {
			t.Fatalf("node %s never re-registered with the successor", l.Node().ID())
		}
		orphans += ls.OrphansCancelled
	}
	if orphans != 0 {
		t.Fatalf("orphans cancelled after quorum failover = %d, want 0", orphans)
	}
	if got := succ.Stats().NodesDeclaredDead; got != 0 {
		t.Fatalf("spurious deaths after failover: %d", got)
	}
	assertTermsDisjoint(t, c)
}

// TestConsensusSplitBrainFencing partitions the leader's election traffic
// away from both followers, leaving its data-plane links to the LRMs intact —
// the classic split-brain: the old leader still believes it is primary while
// the quorum elects a successor. No majority answers the old leader's
// heartbeats, so it refuses every client write: the LRMs' updates, which
// sends them to re-register with the new leader and adopt its higher epoch,
// and a Submit, which it places nothing of. Healing the partition demotes the
// old leader to a follower.
func TestConsensusSplitBrainFencing(t *testing.T) {
	seeds.Run(t, consensusSplitBrainFencing)
}

func consensusSplitBrainFencing(t *testing.T, seed int64) {
	g, c := replicaGrid(t, seed)
	defer g.Stop()
	engine := g.Chaos()

	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	oldMgr := c.manager()
	old := oldMgr.grm
	if old.Role() != grm.RolePrimary || old.Epoch() != 1 {
		t.Fatalf("bootstrap leader: role=%v epoch=%d", old.Role(), old.Epoch())
	}

	// Cut the leader's consensus links both ways. Manager and election
	// traffic is source-checked, but the LRM endpoints are outside the
	// directed rules, so the old leader can still reach every LRM — exactly
	// the window fencing has to close.
	for _, ep := range c.ReplicaEndpoints() {
		if ep == oldMgr.ep {
			continue
		}
		engine.IsolateDirected(oldMgr.ep, ep)
		engine.IsolateDirected(ep, oldMgr.ep)
	}
	if err := g.Advance(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	newLeader := c.GRM()
	if newLeader == old {
		t.Fatal("no successor elected across the partition")
	}
	newEpoch := newLeader.Epoch()
	if newLeader.Role() != grm.RolePrimary || newEpoch < 2 {
		t.Fatalf("successor: role=%v epoch=%d", newLeader.Role(), newEpoch)
	}
	// Split-brain standing: the partitioned old leader still thinks it leads.
	if old.Role() != grm.RolePrimary {
		t.Fatalf("old leader role = %v, want still-primary split-brain", old.Role())
	}
	// Quorum loss made it refuse updates, which drove every LRM to the new
	// leader and onto the new fencing epoch.
	if got := old.Stats().UpdatesRefused; got < 1 {
		t.Fatalf("old leader UpdatesRefused = %d, want >= 1", got)
	}
	for _, l := range c.LRMs() {
		if got := l.Fence(); got != newEpoch {
			t.Fatalf("node %s fence = %d, want %d", l.Node().ID(), got, newEpoch)
		}
		if l.Stats().Reregistrations < 1 {
			t.Fatalf("node %s never re-registered across the partition", l.Node().ID())
		}
	}

	// It refuses a Submit too, naming no leader, and places nothing.
	placed := old.Stats().TasksPlaced
	_, err := old.Submit(protocol.ApplicationSpec{
		Name:        "fenced",
		Kind:        protocol.AppParametric,
		NumTasks:    2,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	if _, fwd := orb.Forwarded(err); err == nil || fwd {
		t.Fatalf("old leader's Submit = %v, want a refusal naming no leader", err)
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := old.Stats().TasksPlaced; got != placed {
		t.Fatalf("old leader placed %d tasks after the cut", got-placed)
	}

	// The quorum side must meanwhile run real work end to end.
	liveApp, err := newLeader.Submit(protocol.ApplicationSpec{
		Name:        "live",
		Kind:        protocol.AppParametric,
		NumTasks:    4,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	lst, err := newLeader.AppStatus(liveApp)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range lst.Tasks {
		if task.State != protocol.TaskDone {
			t.Fatalf("live task %s = %v under new leader", task.TaskID, task.State)
		}
	}
	assertTermsDisjoint(t, c)

	// Heal: the deposed leader hears the higher term and steps down; exactly
	// one primary remains and the old member adopts the current epoch.
	engine.HealAll()
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if old.Role() == grm.RolePrimary {
		t.Fatal("old leader still primary after heal")
	}
	if got := old.Epoch(); got < newEpoch {
		t.Fatalf("old leader epoch after heal = %d, want >= %d", got, newEpoch)
	}
	if n, p := primaries(c, nil); n != 1 || p.Epoch() < newEpoch {
		t.Fatalf("primaries after heal = %d", n)
	}
	assertTermsDisjoint(t, c)
}

// TestSubmitAcknowledgesCommittedApp: a replica-set leader answers a Submit
// only once a batch holding the application has committed, so when the
// Submit returns a majority of the set holds it in its log, its tasks as
// placed. The followers learn of the commit from the next heartbeat, but a
// leader crashed before that leaves a successor that applies the entry
// before it leads, finishes the app and cancels no orphan.
func TestSubmitAcknowledgesCommittedApp(t *testing.T) {
	seeds.Run(t, submitAcknowledgesCommittedApp)
}

func submitAcknowledgesCommittedApp(t *testing.T, seed int64) {
	g, c := replicaGrid(t, seed)
	defer g.Stop()
	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader := c.GRM()
	before, _ := leader.Election().LogSize()
	h, err := g.SubmitTo("c1", asct.NewApplication("acked").
		Parametric(2, 600_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := leader.AppStatus(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("task %d when the Submit returned: %+v, want running", i, task)
		}
	}
	entries, _ := leader.Election().LogSize()
	if entries == before {
		t.Fatal("the Submit returned before its application was proposed")
	}
	holders := 0
	for _, r := range c.replicaGRMs() {
		if n, _ := r.Election().LogSize(); n == entries {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("%d of 3 members hold the leader's %d entries when the Submit returned, want a majority", holders, entries)
	}

	if err := g.CrashGRM("c1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	succ := c.GRM()
	if succ == leader {
		t.Fatal("no successor")
	}
	if st, err = succ.AppStatus(h.ID()); err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("under the successor: %+v, want done", st.Tasks)
	}
	for _, l := range c.LRMs() {
		if n := l.Stats().OrphansCancelled; n != 0 {
			t.Fatalf("node %s cancelled %d orphans", l.Node().ID(), n)
		}
	}
}

// TestSuccessorBuriesSilentMember: a node crashes together with the leader,
// so it never sends the successor an update. The successor knows it as a
// member from the log, counts it seen at its promotion, declares it dead one
// suspect threshold later and re-places its tasks on the other nodes, where
// the application finishes.
func TestSuccessorBuriesSilentMember(t *testing.T) {
	seeds.Run(t, successorBuriesSilentMember)
}

func successorBuriesSilentMember(t *testing.T, seed int64) {
	g, c := replicaGrid(t, seed)
	defer g.Stop()
	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader := c.GRM()
	h, err := g.SubmitTo("c1", asct.NewApplication("survivor").
		Parametric(4, 600_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}).
		RestartEvicted())
	if err != nil {
		t.Fatal(err)
	}
	st, err := leader.AppStatus(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	victim := st.Tasks[0].NodeID
	if err := c.CrashNodeSilently(victim, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := g.CrashGRM("c1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(12 * time.Minute); err != nil {
		t.Fatal(err)
	}
	succ := c.GRM()
	if succ == leader {
		t.Fatal("no successor")
	}
	if s := succ.Stats(); s.NodesDeclaredDead != 1 || s.Members != 3 {
		t.Fatalf("successor: %d nodes declared dead, %d members; want the victim dead, 3 members left",
			s.NodesDeclaredDead, s.Members)
	}
	if st, err = succ.AppStatus(h.ID()); err != nil {
		t.Fatal(err)
	}
	for _, task := range st.Tasks {
		if task.NodeID == victim || task.State != protocol.TaskRunning && task.State != protocol.TaskDone {
			t.Fatalf("task %+v after the victim %s was buried, want running elsewhere", task, victim)
		}
	}
	if err := g.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if st, err = succ.AppStatus(h.ID()); err != nil || !st.Done() {
		t.Fatalf("under the successor: %+v, %v; want done", st.Tasks, err)
	}
}

// TestIdleLogGrowth: a replica set of three over 100 dedicated nodes on 30-s
// updates, running no application, appends at most 20 KB of payload to the
// leader's log in a sim hour after a 2-min warm-up. A node's status is soft
// state its LRM re-tells, and no membership changes (2 376 840 B when every
// update's status went into the log).
func TestIdleLogGrowth(t *testing.T) {
	g := NewGrid(WithSeed(1))
	defer g.Stop()
	c, err := g.AddCluster("idle", WithReplicaSet(3), WithUpdatePeriod(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(100, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	en := c.GRM().Election()
	entries0, bytes0 := en.LogSize()
	if err := g.Advance(time.Hour); err != nil {
		t.Fatal(err)
	}
	if c.GRM().Election() != en {
		t.Fatal("the leader changed")
	}
	entries, bytes := en.LogSize()
	t.Logf("the leader's log: %d entries / %d B after the warm-up, %d / %d B an hour on", entries0, bytes0, entries, bytes)
	if grown := bytes - bytes0; grown > 20_000 {
		t.Fatalf("the leader appended %d B in an idle hour, want at most 20000", grown)
	}
}

// TestBusyLogGrowth is TestIdleLogGrowth with every node busy: one app of 100
// two-hour tasks runs one task a node for the whole hour after it is placed.
// The leader appends at most 20 KB to its log in that hour: neither a busy
// node's status nor a task's progress is hard state, and no task changes
// state (3 568 560 B when the log carried both).
func TestBusyLogGrowth(t *testing.T) {
	g := NewGrid(WithSeed(1))
	defer g.Stop()
	c, err := g.AddCluster("busy", WithReplicaSet(3), WithUpdatePeriod(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(100, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	h, err := g.SubmitTo("busy", asct.NewApplication("busy").
		Parametric(100, 2*3600*1000).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	leader := c.GRM()
	if st := leader.Stats(); st.TasksPlaced != 100 {
		t.Fatalf("%d tasks placed, want 100", st.TasksPlaced)
	}
	en := leader.Election()
	entries0, bytes0 := en.LogSize()
	if err := g.Advance(time.Hour); err != nil {
		t.Fatal(err)
	}
	if c.GRM() != leader {
		t.Fatal("the leader changed")
	}
	st, err := leader.AppStatus(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("task %+v an hour on, want running", task)
		}
	}
	entries, bytes := en.LogSize()
	t.Logf("the leader's log: %d entries / %d B once the app is placed, %d / %d B an hour on", entries0, bytes0, entries, bytes)
	if grown := bytes - bytes0; grown > 20_000 {
		t.Fatalf("the leader appended %d B in a busy hour, want at most 20000", grown)
	}
}

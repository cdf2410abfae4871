package core

import (
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/protocol"
	"integrade/internal/resource"
)

// replicaGrid builds the consensus-suite fixture: one cluster, four dedicated
// nodes, chaos armed, and the management plane running as a three-member
// replica set (the incumbent plus two fresh followers). The long suspect and
// offer-TTL horizons keep the managers' failure detectors out of the way so
// the tests observe election and fencing behaviour, not liveness timeouts.
func replicaGrid(t *testing.T, seed int64) (*Grid, *Cluster) {
	t.Helper()
	g := NewGrid(WithSeed(seed))
	c, err := g.AddCluster("c1",
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
	if err := c.EnableReplicaSet(2); err != nil {
		g.Stop()
		t.Fatal(err)
	}
	return g, c
}

// primaries counts RolePrimary members of the replica set, skipping the
// explicitly excluded (crashed) one whose role is frozen at death.
func primaries(c *Cluster, exclude *grm.GRM) (int, *grm.GRM) {
	n, last := 0, (*grm.GRM)(nil)
	for _, r := range c.Replicas() {
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
	for _, r := range c.Replicas() {
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

// TestReplicaSetMirrorsIncumbentState arms a replica set on a cluster that
// is already running work. Every member starts as a follower, so the
// incumbent's bootstrap really takes term 1 — it leads it, and primes the log
// with everything it knew before the election: the fleet and the running
// application, which every follower must then mirror.
func TestReplicaSetMirrorsIncumbentState(t *testing.T) {
	g := NewGrid(WithSeed(failoverSeed(t)))
	defer g.Stop()
	c, err := g.AddCluster("c1", WithSchedulePeriod(15*time.Second), WithUpdatePeriod(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(3, 1000)); err != nil {
		t.Fatal(err)
	}
	h, err := g.SubmitTo("c1", asct.NewApplication("before").
		Parametric(3, 600_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	incumbent := c.GRM()
	if err := c.EnableReplicaSet(2); err != nil {
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
	for _, r := range c.Replicas()[1:] {
		if r.Role() != grm.RoleFollower {
			t.Fatalf("member role = %v, want follower", r.Role())
		}
		if got := r.KnownNodes(); got != 3 {
			t.Fatalf("follower KnownNodes = %d, want 3", got)
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
	seed := failoverSeed(t)
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
// the quorum elects a successor. Safety must come entirely from fencing:
// the deposed leader loses its replication quorum and starts refusing LRM
// updates, the LRMs re-register with the new leader and adopt its higher
// epoch, and every write the old leader then attempts is rejected — zero
// accepted. Healing the partition demotes the old leader to a follower.
func TestConsensusSplitBrainFencing(t *testing.T) {
	seed := failoverSeed(t)
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

	// The fenced leader keeps scheduling — and every write must bounce.
	rejectedBefore := 0
	for _, l := range c.LRMs() {
		rejectedBefore += l.Stats().StaleEpochRejections
	}
	staleApp, err := old.Submit(protocol.ApplicationSpec{
		Name:        "fenced",
		Kind:        protocol.AppParametric,
		NumTasks:    2,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := old.AppStatus(staleApp)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range st.Tasks {
		if task.State != protocol.TaskPending || task.NodeID != "" {
			t.Fatalf("fenced leader write accepted: task %s state=%v node=%q",
				task.TaskID, task.State, task.NodeID)
		}
	}
	rejected := 0
	for _, l := range c.LRMs() {
		rejected += l.Stats().StaleEpochRejections
	}
	if rejected <= rejectedBefore {
		t.Fatalf("no stale-epoch rejections recorded (before=%d after=%d)",
			rejectedBefore, rejected)
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

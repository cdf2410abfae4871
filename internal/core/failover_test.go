package core

import (
	"encoding/binary"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/bsp"
	"integrade/internal/grm"
	"integrade/internal/resource"
)

// failoverSeed selects the chaos/grid seed for the failover suite; `make
// failover` sweeps CHAOS_SEED over 1, 7 and 42 just like the chaos target.
func failoverSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// parkedBSP is the shared scaffolding of the failover BSP tests: the crash
// test program from faults_test.go with process 0 parked mid-superstep 3 so
// the test controls exactly when the first attempt unwinds.
type parkedBSP struct {
	reached  chan struct{}
	release  chan struct{}
	relOnce  sync.Once
	restored atomic.Int64
	restStep atomic.Int64
	results  []int64
	mu       sync.Mutex
}

func newParkedBSP(procs int) *parkedBSP {
	return &parkedBSP{
		reached: make(chan struct{}),
		release: make(chan struct{}),
		results: make([]int64, procs),
	}
}

// Release unparks process 0 (idempotent, so a failing test's cleanup can
// call it again without panicking).
func (pb *parkedBSP) Release() { pb.relOnce.Do(func() { close(pb.release) }) }

func (pb *parkedBSP) program(supersteps int) bsp.Program {
	var blockOnce atomic.Bool
	blockOnce.Store(true)
	return func(p *bsp.Proc) error {
		var acc int64
		if st := p.Restored(); st != nil {
			acc = int64(binary.BigEndian.Uint64(st))
			pb.restored.Add(1)
			pb.restStep.Store(int64(p.Superstep()))
		}
		p.SetState(func() []byte {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(acc))
			return b[:]
		})
		for p.Superstep() < supersteps {
			acc = bspAccumulate(acc, p.Superstep(), p.PID())
			if p.PID() == 0 && p.Superstep() == 3 && blockOnce.CompareAndSwap(true, false) {
				close(pb.reached)
				<-pb.release
			}
			if err := p.Sync(); err != nil {
				return err
			}
		}
		pb.mu.Lock()
		pb.results[p.PID()] = acc
		pb.mu.Unlock()
		return nil
	}
}

func (pb *parkedBSP) outputs() []int64 {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return append([]int64(nil), pb.results...)
}

// TestReplicaSetFailoverMidSuperstep is the headline failover test: a BSP
// gang is parked mid-superstep (checkpoint at superstep 2 already taken)
// when the replica set's leader is crashed. The surviving quorum must elect a
// successor that holds the replicated application state; the LRMs must
// re-resolve the manager through Naming and re-register with no orphaned
// tasks. A subsequent node crash then proves the successor's failure detector
// and eviction path work end to end: the gang resumes from the checkpoint and
// produces output byte-identical to a fault-free run.
func TestReplicaSetFailoverMidSuperstep(t *testing.T) {
	const (
		procs      = 3
		supersteps = 8
		ckptEvery  = 2
	)
	seed := failoverSeed(t)
	expected := runCrashTestBSP(t, nil)

	g := NewGrid(WithSeed(seed))
	defer g.Stop()
	// The suspect threshold outlasts the election window, so the successor's
	// detector waits for the LRMs to re-register with it.
	c, err := g.AddCluster("c1",
		WithSchedulePeriod(15*time.Second),
		WithUpdatePeriod(15*time.Second),
		WithGRMOptions(grm.WithSuspectAfter(2*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}
	engine := g.EnableChaos(seed)
	if err := c.EnableReplicaSet(2); err != nil {
		t.Fatal(err)
	}
	leader := c.GRM()
	// Let the log establish a cadence.
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, r := range c.replicaGRMs() {
		if got := r.Stats().QuorumBatches; got < 2 {
			t.Fatalf("member %d committed %d batches, want >= 2", i, got)
		}
	}

	pb := newParkedBSP(procs)
	defer pb.Release()
	done := make(chan error, 1)
	go func() {
		done <- g.RunBSP(BSPJob{
			Name:            "failover-quorum",
			Procs:           procs,
			Alloc:           resource.Vector{MIPS: 800, RAMMB: 128},
			CheckpointEvery: ckptEvery,
			MaxRestarts:     3,
		}, pb.program(supersteps))
	}()
	select {
	case <-pb.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("gang never reached superstep 3")
	}
	// Replicate the in-flight application, then pull the leader's plug.
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := g.CrashGRM("c1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	succ := c.GRM()
	if succ == leader {
		t.Fatal("active manager did not change after the leader crash")
	}
	if succ.Role() != grm.RolePrimary {
		t.Fatalf("successor role = %v", succ.Role())
	}
	stats := succ.Stats()
	if stats.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", stats.Promotions)
	}
	if stats.NodesDeclaredDead != 0 {
		t.Fatalf("spurious deaths after failover: %d", stats.NodesDeclaredDead)
	}
	if got := succ.KnownNodes(); got != 4 {
		t.Fatalf("KnownNodes after failover = %d, want 4", got)
	}
	orphans := 0
	for _, l := range c.LRMs() {
		ls := l.Stats()
		if ls.Reregistrations < 1 {
			t.Fatalf("node %s never re-registered: %+v", l.Node().ID(), ls)
		}
		orphans += ls.OrphansCancelled
	}
	// The replicated state covers every running task, so the reconcile
	// exchange must reap nothing.
	if orphans != 0 {
		t.Fatalf("orphans cancelled after the failover = %d, want 0", orphans)
	}
	appIDs := succ.AppIDs()
	if len(appIDs) != 1 {
		t.Fatalf("replicated apps = %v", appIDs)
	}

	// Now crash a gang member's machine: the successor must detect it, roll
	// the gang back together, and the run must resume from the checkpoint —
	// the successor is a fully functional primary.
	st, err := succ.AppStatus(appIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	victim := st.Tasks[0].NodeID
	if victim == "" {
		t.Fatalf("placeholder not placed: %+v", st.Tasks)
	}
	engine.ScheduleCrash(victim, time.Second, 0)
	if err := g.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := succ.Stats().NodesDeclaredDead; got != 1 {
		t.Fatalf("NodesDeclaredDead = %d, want 1", got)
	}
	pb.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunBSP: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBSP did not finish after failover recovery")
	}
	if got := pb.restored.Load(); got != procs {
		t.Fatalf("restored processes = %d, want %d", got, procs)
	}
	if got := pb.restStep.Load(); got != 2 {
		t.Fatalf("restored superstep = %d, want 2", got)
	}
	got := pb.outputs()
	for pid := range expected {
		if got[pid] != expected[pid] {
			t.Fatalf("proc %d output %d != fault-free %d", pid, got[pid], expected[pid])
		}
	}
	if apps := g.store.Apps(); len(apps) != 0 {
		t.Fatalf("snapshots left after success: %v", apps)
	}
}

// TestFailoverDuringRegistrationBurst crashes the leader in the middle of a
// registration burst: four nodes are established (and replicated), four more
// join just as the manager dies, so their very first updates land on a dead
// endpoint. The replica set must elect a successor and the entire fleet —
// veterans and newcomers alike — must converge on it through Naming, after
// which the cluster schedules a full bag of tasks normally.
func TestFailoverDuringRegistrationBurst(t *testing.T) {
	seed := failoverSeed(t)
	g := NewGrid(WithSeed(seed))
	defer g.Stop()
	c, err := g.AddCluster("c1",
		WithSchedulePeriod(15*time.Second),
		WithUpdatePeriod(15*time.Second),
		WithGRMOptions(grm.WithSuspectAfter(2*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}
	g.EnableChaos(seed)
	if err := c.EnableReplicaSet(2); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}

	// Kill the leader, then add the burst: their initial registrations all
	// fail against the dead endpoint.
	if err := g.CrashGRM("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	succ := c.GRM()
	if succ.Role() != grm.RolePrimary {
		t.Fatalf("role = %v", succ.Role())
	}
	if got := succ.Stats().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if got := succ.KnownNodes(); got != 8 {
		t.Fatalf("KnownNodes = %d, want 8", got)
	}
	for _, l := range c.LRMs() {
		if l.Stats().Reregistrations < 1 {
			t.Fatalf("node %s never registered with the successor", l.Node().ID())
		}
	}

	// The healed cluster must do real work: one task per node.
	h, err := g.SubmitTo("c1", asct.NewApplication("post-failover").
		Parametric(8, 60_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.waitSimulated(30*time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range st.Tasks {
		if task.State.String() != "done" {
			t.Fatalf("task %s = %v after failover", task.TaskID, task.State)
		}
	}
}

// TestDoubleFailoverColdRebuild kills the manager twice, and each time
// RestartGRM rebuilds an empty one from cold. Self-healing runs the long way
// around: LRMs re-register through Naming, the first rebuild's reconcile
// exchange reaps the dead manager's orphaned placeholder tasks to free their
// capacity, the second finds nothing left to reap, and the in-flight BSP job
// re-acquires a fresh gang under the last manager and resumes from its
// checkpoint with zero lost completed work.
func TestDoubleFailoverColdRebuild(t *testing.T) {
	const (
		procs      = 3
		supersteps = 8
		ckptEvery  = 2
	)
	seed := failoverSeed(t)
	expected := runCrashTestBSP(t, nil)

	g := NewGrid(WithSeed(seed))
	defer g.Stop()
	c, err := g.AddCluster("c1",
		WithSchedulePeriod(15*time.Second),
		WithUpdatePeriod(15*time.Second),
		WithGRMOptions(grm.WithSuspectAfter(45*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}
	g.EnableChaos(seed)
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}

	pb := newParkedBSP(procs)
	defer pb.Release()
	done := make(chan error, 1)
	go func() {
		done <- g.RunBSP(BSPJob{
			Name:            "failover-double",
			Procs:           procs,
			Alloc:           resource.Vector{MIPS: 800, RAMMB: 128},
			CheckpointEvery: ckptEvery,
			MaxRestarts:     3,
		}, pb.program(supersteps))
	}()
	select {
	case <-pb.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("gang never reached superstep 3")
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}

	// rebuild crashes the active manager, leaves the cluster headless for two
	// minutes — the LRMs cycle in their re-registration backoff against a
	// dead binding — then rebuilds it from cold and lets the fleet heal. The
	// in-flight run's placement dies with the old manager; the runtime is
	// aborted so it re-acquires.
	orphans := func() int {
		n := 0
		for _, l := range c.LRMs() {
			n += l.Stats().OrphansCancelled
		}
		return n
	}
	rebuild := func(reaped int) {
		t.Helper()
		dead := c.GRM()
		if err := g.CrashGRM("c1"); err != nil {
			t.Fatal(err)
		}
		if err := g.Advance(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := g.RestartGRM("c1"); err != nil {
			t.Fatal(err)
		}
		if err := g.Advance(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		cold := c.GRM()
		if cold == dead {
			t.Fatal("RestartGRM did not swap the manager")
		}
		if got := cold.KnownNodes(); got != 4 {
			t.Fatalf("KnownNodes after cold rebuild = %d, want 4", got)
		}
		if got := cold.Stats().TasksReconciled; got != reaped {
			t.Fatalf("TasksReconciled = %d, want %d", got, reaped)
		}
	}
	// The first rebuild reaps the gang's placements, freeing the capacity a
	// new gang needs; the second manager never placed anything.
	rebuild(procs)
	if got := orphans(); got != procs {
		t.Fatalf("orphans cancelled = %d, want %d", got, procs)
	}
	rebuild(0)
	if got := orphans(); got != procs {
		t.Fatalf("orphans cancelled after the second rebuild = %d, want %d", got, procs)
	}

	// Unpark: the first attempt unwinds with the manager-lost abort, RunBSP
	// re-acquires a gang under the cold manager and resumes from the
	// checkpoint at superstep 2.
	pb.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunBSP: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBSP did not finish after cold rebuild")
	}
	if got := pb.restored.Load(); got != procs {
		t.Fatalf("restored processes = %d, want %d", got, procs)
	}
	if got := pb.restStep.Load(); got != 2 {
		t.Fatalf("restored superstep = %d, want 2", got)
	}
	got := pb.outputs()
	for pid := range expected {
		if got[pid] != expected[pid] {
			t.Fatalf("proc %d output %d != fault-free %d", pid, got[pid], expected[pid])
		}
	}
	if apps := g.store.Apps(); len(apps) != 0 {
		t.Fatalf("snapshots left after success: %v", apps)
	}
}

package core

import (
	"sync"
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

func TestGridLifecycle(t *testing.T) {
	g := NewGrid(WithSeed(7))
	defer g.Stop()
	c, err := g.AddCluster("ime")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddCluster("ime"); err == nil {
		t.Fatal("duplicate cluster accepted")
	}
	ids, err := c.AddNodes(DedicatedNodes(3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if got := c.GRM().KnownNodes(); got != 3 {
		t.Fatalf("KnownNodes = %d", got)
	}
	if got := g.Clusters(); len(got) != 1 || got[0] != "ime" {
		t.Fatalf("Clusters = %v", got)
	}
	g.Stop()
	g.Stop() // idempotent
}

func TestQuickstartScenario(t *testing.T) {
	g := NewGrid(WithSeed(7))
	defer g.Stop()
	c, err := g.AddCluster("ime")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}
	h, err := g.Submit(asct.NewApplication("demo").
		Sequential(600_000).
		RequireMinimum(resource.Vector{MIPS: 500, RAMMB: 16}).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.waitSimulated(time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("not done: %+v", st.Tasks)
	}
	if h.ClusterID() != "ime" || h.Hops() != 0 {
		t.Fatalf("handle = %s hops %d", h.ClusterID(), h.Hops())
	}
}

func TestHierarchicalRouting(t *testing.T) {
	g := NewGrid(WithSeed(7))
	defer g.Stop()
	root, err := g.AddCluster("root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.AddNodes(DedicatedNodes(1, 200)); err != nil {
		t.Fatal(err)
	}
	big, err := g.AddCluster("big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.AddNodes(DedicatedNodes(4, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := g.LinkChild("root", "big"); err != nil {
		t.Fatal(err)
	}
	if err := g.LinkChild("root", "ghost"); err == nil {
		t.Fatal("linking unknown cluster succeeded")
	}
	h, err := g.Submit(asct.NewApplication("heavy").
		Sequential(60_000).
		Allocate(resource.Vector{MIPS: 1500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if h.ClusterID() != "big" || h.Hops() != 1 {
		t.Fatalf("routed to %s with %d hops", h.ClusterID(), h.Hops())
	}
	st, err := h.waitSimulated(time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatal("routed app incomplete")
	}
}

func TestDesktopGridWithEvictionRecovery(t *testing.T) {
	g := NewGrid(WithSeed(11))
	defer g.Stop()
	c, err := g.AddCluster("lab", WithPolicy(grm.UsageAware{}), WithSchedulePeriod(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// A mixed cluster: offices that will evict at 09:00 plus a few
	// dedicated machines as fallback.
	if _, err := c.AddNodes(DesktopNodes(6, usage.OfficeWorker)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(2, 600)); err != nil {
		t.Fatal(err)
	}
	// Submit at 03:00 a batch that outlives the night.
	if err := g.Advance(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	h, err := g.Submit(asct.NewApplication("sweep").
		Parametric(4, 10*3600*450). // ~10 h at 450 MIPS
		Allocate(resource.Vector{MIPS: 450, RAMMB: 64}).
		Checkpoint(3600 * 450)) // hourly checkpoints
	if err != nil {
		t.Fatal(err)
	}
	// Run for 36 simulated hours.
	if err := g.Advance(36 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	stats := c.GRM().Stats()
	done := 0
	for _, task := range st.Tasks {
		if task.State == protocol.TaskDone {
			done++
		}
	}
	if done == 0 {
		t.Fatalf("no tasks done after 36h; stats=%+v tasks=%+v", stats, st.Tasks)
	}
	if c.DeliveredWork() <= 0 {
		t.Fatal("no work delivered")
	}
}

func TestFailNodeEvictsAndNotifies(t *testing.T) {
	g := NewGrid(WithSeed(3))
	defer g.Stop()
	c, err := g.AddCluster("x", WithSchedulePeriod(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(2, 1000)); err != nil {
		t.Fatal(err)
	}
	h, err := g.Submit(asct.NewApplication("victim").
		Sequential(3600 * 1000). // 1 h at 1000 MIPS
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}).
		Checkpoint(600 * 1000)) // every 10 min of progress
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	victimNode := st.Tasks[0].NodeID
	if victimNode == "" {
		t.Fatal("task not placed")
	}
	if err := c.FailNode(victimNode, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode("ghost", time.Hour); err == nil {
		t.Fatal("failing unknown node succeeded")
	}
	// The task restarts from its checkpoint on the surviving node and
	// completes; total simulated time generously covers the redo.
	st, err = h.waitSimulated(3*time.Hour, time.Minute)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, c.GRM().Stats())
	}
	if st.Tasks[0].Restarts < 1 {
		t.Fatalf("restarts = %d", st.Tasks[0].Restarts)
	}
	if st.Tasks[0].NodeID == victimNode {
		t.Fatal("task restarted on the crashed node")
	}
	stats := c.GRM().Stats()
	if stats.TasksEvicted < 1 || stats.Restarts < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Checkpointing bounds the lost work to one interval per eviction.
	if stats.WorkLostMI > float64(stats.TasksEvicted)*600*1000 {
		t.Fatalf("WorkLostMI = %v", stats.WorkLostMI)
	}
}

func TestFailRandomNodes(t *testing.T) {
	g := NewGrid(WithSeed(5))
	defer g.Stop()
	c, err := g.AddCluster("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(5, 1000)); err != nil {
		t.Fatal(err)
	}
	failed := c.FailRandomNodes(2, time.Hour)
	if len(failed) != 2 {
		t.Fatalf("failed = %v", failed)
	}
	down := 0
	for _, n := range c.Nodes() {
		if n.IsDown(g.Now()) {
			down++
		}
	}
	if down != 2 {
		t.Fatalf("down = %d", down)
	}
}

func TestGridAdvanceRequiresVirtualClock(t *testing.T) {
	g := NewGrid(withClock(sim.RealClock{}))
	defer g.Stop()
	if err := g.Advance(time.Second); err == nil {
		t.Fatal("Advance on wall clock succeeded")
	}
}

func TestSubmitToCluster(t *testing.T) {
	g := NewGrid(WithSeed(7))
	defer g.Stop()
	c, err := g.AddCluster("only")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(1, 1000)); err != nil {
		t.Fatal(err)
	}
	h, err := g.SubmitTo("only", asct.NewApplication("direct").
		Sequential(60_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 32}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.SubmitTo("ghost", asct.NewApplication("x").Sequential(1)); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	if _, err := h.waitSimulated(time.Hour, time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestStopConcurrentWithAccessors locks down the Grid.Stop restructuring:
// teardown (cluster stop, ORB close) runs outside g.mu, so grid accessors
// and a second Stop may proceed while the first tears the clusters down.
// Before the change this test could only pass by waiting for the full
// teardown under the grid lock; now it exercises the concurrent path under
// the race detector.
func TestStopConcurrentWithAccessors(t *testing.T) {
	g := NewGrid(WithSeed(11))
	if _, err := g.AddCluster("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddCluster("b"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Clusters()
				g.Cluster("a")
			}
		}()
	}
	wg.Add(2)
	go func() { defer wg.Done(); g.Stop() }()
	go func() { defer wg.Done(); g.Stop() }()
	wg.Wait()
	if got := g.Clusters(); len(got) != 2 {
		t.Fatalf("Clusters after Stop = %v", got)
	}
}

func TestGracefulDepartureDrainsBeforeOwnerReturns(t *testing.T) {
	// The intermittent-fleet path end to end: office-worker desktops train
	// their LUPA for a week, the cluster runs window-aware with the
	// pre-departure drain armed, and overnight grid work is checkpointed and
	// handed back BEFORE the 09:00 owner arrivals instead of being evicted.
	g := NewGrid(WithSeed(11))
	defer g.Stop()
	c, err := g.AddCluster("lab",
		WithPolicy(grm.UsageAware{}),
		WithSchedulePeriod(time.Minute),
		WithGRMOptions(grm.WithWindowAware()),
		WithLRMOptions(lrm.WithDepartureDrain(15*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DesktopNodes(4, usage.OfficeWorker)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(1, 500)); err != nil {
		t.Fatal(err)
	}
	// Train the analyzers across 9 simulated days, then land at 03:00.
	if err := g.Advance(9*24*time.Hour + 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	// A batch that cannot finish before the offices reopen.
	h, err := g.Submit(asct.NewApplication("overnight").
		Parametric(3, 10*3600*450). // ~10h at 450 MIPS
		Allocate(resource.Vector{MIPS: 450, RAMMB: 64}).
		Checkpoint(3600 * 450). // hourly checkpoints
		RestartEvicted())
	if err != nil {
		t.Fatal(err)
	}
	// Run through the 09:00 owner arrivals.
	if err := g.Advance(9 * time.Hour); err != nil {
		t.Fatal(err)
	}
	grmStats := c.GRM().Stats()
	if grmStats.TasksDrained == 0 {
		t.Fatalf("no proactive drains before owner returns; stats=%+v", grmStats)
	}
	if grmStats.GracefulDepartures == 0 {
		t.Fatalf("no departure notices reached the GRM; stats=%+v", grmStats)
	}
	// The drains carried exact progress: work past the last checkpoint
	// boundary was preserved, not lost.
	if grmStats.DrainWorkSavedMI < 0 {
		t.Fatalf("DrainWorkSavedMI = %v", grmStats.DrainWorkSavedMI)
	}
	drained := 0
	for _, l := range c.LRMs() {
		st := l.Stats()
		drained += st.TasksDrained
	}
	if drained == 0 {
		t.Fatal("no LRM recorded a drained task")
	}
	// The batch still completes: drained tasks migrate and finish elsewhere
	// (or back on the desktops once their owners leave).
	if err := g.Advance(30 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("overnight batch incomplete after migration: %+v", st.Tasks)
	}
}

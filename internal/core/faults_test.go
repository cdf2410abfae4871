package core

import (
	"encoding/binary"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/bsp"
	"integrade/internal/chaos"
	"integrade/internal/grm"
	"integrade/internal/protocol"
	"integrade/internal/resource"
)

// TestProtocolsSurviveMessageLoss drops a fraction of all in-process
// messages and verifies that the periodic protocols converge anyway: a lost
// information update is replaced by the next period's, which also carries
// the completions the lost one held.
func TestProtocolsSurviveMessageLoss(t *testing.T) {
	g := NewGrid(WithSeed(9))
	defer g.Stop()
	c, err := g.AddCluster("lossy", WithSchedulePeriod(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}

	// Drop 30% of update traffic, which carries every task event (but never
	// reservation/execution RPCs, whose failures the GRM already treats as
	// refusals and retries).
	engine := g.EnableChaos(77)
	engine.AddFault(chaos.MessageFault{Match: chaos.Match{Op: protocol.OpUpdate}, Drop: 0.3})

	if err := g.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Despite 30% loss the trader still knows most nodes: an offer stays
	// until the failure detector buries its node, after three missed
	// periods in a row at 30-s cadence, floored at 90 s.
	if got := c.GRM().KnownNodes(); got < 3 {
		t.Fatalf("KnownNodes under loss = %d, want >= 3", got)
	}

	h, err := g.SubmitTo("lossy", asct.NewApplication("tolerant").
		Parametric(4, 300_000).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}).
		RestartEvicted())
	if err != nil {
		t.Fatal(err)
	}
	// Ten minutes of work each; half an hour under loss, then the loss
	// stops so a node the failure detector gave up on can drain its restart.
	_ = g.Advance(30 * time.Minute)
	engine.ClearFaults()
	_ = g.Advance(30 * time.Minute)

	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, task := range st.Tasks {
		if task.State.String() == "done" {
			done++
		}
	}
	if done != len(st.Tasks) {
		t.Fatalf("%d of %d tasks done after message loss: %+v", done, len(st.Tasks), st.Tasks)
	}
}

// TestLostDoneNotificationLeavesConsistentState: a completion rides the
// Information Update, so while updates are black-holed the GRM's view lags
// (task still "running") but the node side is consistent (task finished,
// resources freed); the first update that gets through reports the task done
// — once, however many follow — and the cluster keeps placing.
func TestLostDoneNotificationLeavesConsistentState(t *testing.T) {
	g := NewGrid(WithSeed(10))
	defer g.Stop()
	c, err := g.AddCluster("x", WithSchedulePeriod(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(1, 1000)); err != nil {
		t.Fatal(err)
	}
	h, err := g.SubmitTo("x", asct.NewApplication("quick").
		Sequential(60_000).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	// Drop every update from now on: the two the task's minute spans, the
	// second of which would have carried its completion.
	engine := g.EnableChaos(10)
	engine.AddFault(chaos.MessageFault{Match: chaos.Match{Op: protocol.OpUpdate}, Drop: 1})
	_ = g.Advance(75 * time.Second)

	// Node side: task finished and resources are free.
	n := c.Nodes()[0]
	if got := len(n.RunningTasks()); got != 0 {
		t.Fatalf("node still running %d tasks", got)
	}
	free := n.Ledger().Free(g.Now())
	if free != n.Ledger().Capacity() {
		t.Fatalf("node resources not freed: %v", free)
	}
	if got := c.LRMs()[0].Stats(); got.TasksCompleted != 1 || got.UpdateFailures < 2 {
		t.Fatalf("LRM stats = %+v, want the completion observed and two updates lost", got)
	}
	// GRM side: the app is stale-running, not corrupted.
	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Tasks[0].State.String(), "running") {
		t.Fatalf("unexpected state %v", st.Tasks[0].State)
	}

	// Lift the fault: the next update delivers the completion, and the ones
	// after it do not deliver it again.
	engine.ClearFaults()
	_ = g.Advance(30 * time.Second)
	if st, err = h.Status(); err != nil || !st.Done() {
		t.Fatalf("after the fault lifted: status %+v, err %v; want done", st, err)
	}
	_ = g.Advance(5 * time.Minute)
	if got := c.GRM().Stats().TasksDone; got != 1 {
		t.Fatalf("TasksDone = %d, want 1", got)
	}
	// New submissions still work at full capacity.
	h2, err := g.SubmitTo("x", asct.NewApplication("next").
		Sequential(60_000).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.waitSimulated(time.Hour, time.Minute); err != nil {
		t.Fatal(err)
	}
}

// bspAccumulate is the deterministic per-superstep state transition used by
// the crash-recovery test: the final value depends on every superstep, so a
// run that restarted from the wrong superstep (or lost state) cannot match.
func bspAccumulate(acc int64, superstep, pid int) int64 {
	return acc*31 + int64((superstep+1)*(pid+7))
}

// TestBSPGangResumesFromSnapshotAfterSilentCrash kills a gang member's node
// mid-superstep — no eviction notice, a pulled power cord — and asserts the
// recovery chain end to end: the GRM failure detector declares the node
// dead, rolls the placeholder gang back together and re-places it on the
// survivors, the eviction observer aborts the in-flight BSP runtime, and
// RunBSP restarts from the last checkpoint, producing output identical to a
// fault-free run.
func TestBSPGangResumesFromSnapshotAfterSilentCrash(t *testing.T) {
	const (
		procs      = 3
		supersteps = 8
		ckptEvery  = 2
	)

	// Fault-free reference run on its own grid.
	expected := runCrashTestBSP(t, nil)

	g := NewGrid(WithSeed(21))
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
	engine := g.EnableChaos(7)

	var blockOnce atomic.Bool
	blockOnce.Store(true)
	reached := make(chan struct{})
	release := make(chan struct{})
	var restoredProcs atomic.Int64
	var restoredStep atomic.Int64
	results := make([]int64, procs)
	var resMu sync.Mutex
	program := func(p *bsp.Proc) error {
		var acc int64
		if st := p.Restored(); st != nil {
			acc = int64(binary.BigEndian.Uint64(st))
			restoredProcs.Add(1)
			restoredStep.Store(int64(p.Superstep()))
		}
		p.SetState(func() []byte {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(acc))
			return b[:]
		})
		for p.Superstep() < supersteps {
			acc = bspAccumulate(acc, p.Superstep(), p.PID())
			if p.PID() == 0 && p.Superstep() == 3 && blockOnce.CompareAndSwap(true, false) {
				close(reached)
				<-release
			}
			if err := p.Sync(); err != nil {
				return err
			}
		}
		resMu.Lock()
		results[p.PID()] = acc
		resMu.Unlock()
		return nil
	}

	done := make(chan error, 1)
	go func() {
		defer close(done)
		done <- g.RunBSP(BSPJob{
			Name:            "crashy",
			Procs:           procs,
			Alloc:           resource.Vector{MIPS: 800, RAMMB: 128},
			CheckpointEvery: ckptEvery,
			MaxRestarts:     3,
		}, program)
	}()

	// Wait for the gang to reach superstep 3 (checkpoint at 2 taken), with
	// process 0 parked mid-superstep.
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("gang never reached superstep 3")
	}
	// Let heartbeats accumulate so the detector has an observed cadence.
	if err := g.Advance(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Pick a gang member's node and pull its power cord via the engine.
	appIDs := c.GRM().AppIDs()
	if len(appIDs) != 1 {
		t.Fatalf("app ids = %v", appIDs)
	}
	st, err := c.GRM().AppStatus(appIDs[0])
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
	stats := c.GRM().Stats()
	if stats.NodesDeclaredDead != 1 {
		t.Fatalf("NodesDeclaredDead = %d, want 1", stats.NodesDeclaredDead)
	}
	if engine.Stats().Crashes != 1 {
		t.Fatalf("engine crashes = %+v", engine.Stats())
	}
	// The runtime was aborted by the eviction observer; release the parked
	// process so the first attempt unwinds and the retry restores.
	close(release)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunBSP: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBSP did not finish after recovery")
	}

	// Every process restored exactly once, from the checkpoint at superstep
	// 2 (the last one taken before the crash at superstep 3).
	if got := restoredProcs.Load(); got != procs {
		t.Fatalf("restored processes = %d, want %d", got, procs)
	}
	if got := restoredStep.Load(); got != 2 {
		t.Fatalf("restored superstep = %d, want 2", got)
	}
	resMu.Lock()
	got := append([]int64(nil), results...)
	resMu.Unlock()
	for pid := range expected {
		if got[pid] != expected[pid] {
			t.Fatalf("proc %d output %d != fault-free %d", pid, got[pid], expected[pid])
		}
	}
	// The snapshot is dropped after the successful run.
	if apps := g.store.Apps(); len(apps) != 0 {
		t.Fatalf("snapshots left after success: %v", apps)
	}
}

// runCrashTestBSP executes the reference fault-free run and returns the
// per-process outputs.
func runCrashTestBSP(t *testing.T, _ []string) []int64 {
	t.Helper()
	const (
		procs      = 3
		supersteps = 8
	)
	g := NewGrid(WithSeed(21))
	defer g.Stop()
	c, err := g.AddCluster("c1", WithSchedulePeriod(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(4, 1000)); err != nil {
		t.Fatal(err)
	}
	results := make([]int64, procs)
	var resMu sync.Mutex
	program := func(p *bsp.Proc) error {
		var acc int64
		p.SetState(func() []byte {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(acc))
			return b[:]
		})
		for p.Superstep() < supersteps {
			acc = bspAccumulate(acc, p.Superstep(), p.PID())
			if err := p.Sync(); err != nil {
				return err
			}
		}
		resMu.Lock()
		results[p.PID()] = acc
		resMu.Unlock()
		return nil
	}
	if err := g.RunBSP(BSPJob{
		Name:            "reference",
		Procs:           procs,
		Alloc:           resource.Vector{MIPS: 800, RAMMB: 128},
		CheckpointEvery: 2,
	}, program); err != nil {
		t.Fatalf("fault-free RunBSP: %v", err)
	}
	resMu.Lock()
	defer resMu.Unlock()
	return append([]int64(nil), results...)
}

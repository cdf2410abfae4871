package node

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"integrade/internal/ncc"
	"integrade/internal/resource"
	"integrade/internal/usage"
)

var (
	linux  = resource.Platform{Arch: "amd64", OS: "linux"}
	monday = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
)

func spec(mips float64) resource.MachineSpec {
	return resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: mips, RAMMB: 1024, DiskMB: 10240, NetMbps: 100},
		LANID:    "lan0",
	}
}

func dedicatedNode(t *testing.T, mips float64, now time.Time) *Node {
	t.Helper()
	s := spec(mips)
	s.Dedicated = true
	n, err := New("ded-1", s, nil, ncc.Generous(), now)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidates(t *testing.T) {
	if _, err := New("bad", resource.MachineSpec{}, nil, ncc.Default(), monday); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := New("bad", spec(1000), nil, ncc.Policy{}, monday); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestDedicatedNodeAlwaysAvailable(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	if !n.Dedicated() {
		t.Fatal("not dedicated")
	}
	for h := 0; h < 48; h++ {
		at := monday.Add(time.Duration(h) * time.Hour)
		share := n.Share(at)
		if !share.Allowed || share.CPUFrac != 1 {
			t.Fatalf("dedicated share at %v = %+v", at, share)
		}
	}
	if got := n.GridCapacity(monday); got.MIPS != 1000 {
		t.Fatalf("GridCapacity = %v", got)
	}
}

func TestTaskRunsToCompletion(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	// 1000 MIPS node, full allocation: 600 s of work = 600_000 MI → 10 min.
	task := Task{
		ID:    "t1",
		Work:  600_000,
		Alloc: resource.Vector{MIPS: 1000, RAMMB: 128},
	}
	if err := n.StartTask(monday, task); err != nil {
		t.Fatal(err)
	}
	done, evicted := n.Sync(monday.Add(9 * time.Minute))
	if len(done) != 0 || len(evicted) != 0 {
		t.Fatalf("premature completion: done=%v evicted=%v", done, evicted)
	}
	done, _ = n.Sync(monday.Add(10*time.Minute + time.Second))
	if len(done) != 1 || done[0].ID != "t1" {
		t.Fatalf("done = %v", done)
	}
	if done[0].state != TaskDone {
		t.Fatalf("state = %v", done[0].state)
	}
	if got := n.DeliveredWork(); got < 599_000 || got > 601_000 {
		t.Fatalf("DeliveredWork = %v", got)
	}
	if len(n.RunningTasks()) != 0 {
		t.Fatal("task still listed after completion")
	}
}

func TestHalfAllocationRunsHalfSpeed(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	task := Task{ID: "t1", Work: 300_000, Alloc: resource.Vector{MIPS: 500}}
	if err := n.StartTask(monday, task); err != nil {
		t.Fatal(err)
	}
	// 300000 MI at 500 MIPS = 600 s.
	done, _ := n.Sync(monday.Add(9 * time.Minute))
	if len(done) != 0 {
		t.Fatal("finished too early")
	}
	done, _ = n.Sync(monday.Add(11 * time.Minute))
	if len(done) != 1 {
		t.Fatal("not finished at 11 min")
	}
}

func TestOversubscriptionSharesProportionally(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	// Two tasks each wanting 800 MIPS on a 1000-MIPS node: each gets 500.
	for _, id := range []string{"a", "b"} {
		if err := n.StartTask(monday, Task{ID: id, Work: 1_000_000, Alloc: resource.Vector{MIPS: 800}}); err != nil {
			t.Fatal(err)
		}
	}
	n.Sync(monday.Add(10 * time.Minute))
	// 10 min at combined 1000 MIPS = 600k MI total, 300k each.
	if got := n.DeliveredWork(); got < 590_000 || got > 610_000 {
		t.Fatalf("DeliveredWork = %v, want ~600k", got)
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	if err := n.StartTask(monday, Task{ID: "x", Work: 1, Alloc: resource.Vector{MIPS: 1}}); err != nil {
		t.Fatal(err)
	}
	err := n.StartTask(monday, Task{ID: "x", Work: 1, Alloc: resource.Vector{MIPS: 1}})
	if !errors.Is(err, ErrTaskExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestIdleOnlyNodeEvictsWhenOwnerReturns(t *testing.T) {
	// Office worker: idle overnight, busy from 09:00.
	tr := usage.NewTrace(usage.OfficeWorker, 7)
	start := monday.Add(4 * time.Hour) // 04:00, owner asleep
	if tr.BusyAt(start) {
		t.Skip("seed has a burst at 04:00")
	}
	n, err := New("n1", spec(1000), tr, ncc.Default(), start)
	if err != nil {
		t.Fatal(err)
	}
	share := n.Share(start)
	if !share.Allowed {
		t.Fatalf("share at 04:00 = %+v", share)
	}
	// Huge task that cannot finish before 09:00.
	task := Task{ID: "big", Work: 1e12, Alloc: resource.Vector{MIPS: 500}}
	if err := n.StartTask(start, task); err != nil {
		t.Fatal(err)
	}
	done, evicted := n.Sync(monday.Add(11 * time.Hour)) // 11:00, owner at work
	if len(done) != 0 {
		t.Fatalf("impossible completion: %v", done)
	}
	if len(evicted) != 1 || evicted[0].state != TaskEvicted {
		t.Fatalf("evicted = %v", evicted)
	}
	if n.Evictions() != 1 {
		t.Fatalf("Evictions = %d", n.Evictions())
	}
	// Partial progress happened before eviction.
	if evicted[0].Progress() <= 0 {
		t.Fatal("no progress before eviction")
	}
}

func TestNodeFailEvictsAndGoesDown(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	if err := n.StartTask(monday, Task{ID: "t", Work: 1e9, Alloc: resource.Vector{MIPS: 100}}); err != nil {
		t.Fatal(err)
	}
	evicted := n.Fail(monday.Add(time.Hour), 30*time.Minute)
	if len(evicted) != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
	at := monday.Add(time.Hour + time.Minute)
	if !n.IsDown(at) {
		t.Fatal("node not down after Fail")
	}
	if share := n.Share(at); share.Allowed {
		t.Fatalf("down node shares: %+v", share)
	}
	if err := n.StartTask(at, Task{ID: "t2", Work: 1, Alloc: resource.Vector{MIPS: 1}}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("StartTask on down node err = %v", err)
	}
	// Node recovers after the outage.
	later := monday.Add(2 * time.Hour)
	if n.IsDown(later) {
		t.Fatal("node still down after outage")
	}
	if err := n.StartTask(later, Task{ID: "t3", Work: 1000, Alloc: resource.Vector{MIPS: 100}}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelTaskReleasesLedger(t *testing.T) {
	n := dedicatedNode(t, 1000, monday)
	alloc := resource.Vector{MIPS: 400, RAMMB: 256}
	res, err := n.Ledger().Reserve(alloc, "app", monday, monday.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ledger().Commit(res.ID, monday); err != nil {
		t.Fatal(err)
	}
	if err := n.StartTask(monday, Task{ID: "t", Work: 1e9, Alloc: alloc}); err != nil {
		t.Fatal(err)
	}
	task := n.CancelTask(monday.Add(time.Minute), "t")
	if task == nil {
		t.Fatal("CancelTask returned nil")
	}
	if task.Progress() <= 0 {
		t.Fatal("no progress before cancel")
	}
	free := n.Ledger().Free(monday.Add(time.Minute))
	if free != n.Ledger().Capacity() {
		t.Fatalf("ledger not fully free after cancel: %v", free)
	}
	if n.CancelTask(monday, "ghost") != nil {
		t.Fatal("cancel of unknown task returned a task")
	}
}

func TestInactiveFor(t *testing.T) {
	tr := usage.NewTrace(usage.OfficeWorker, 11)
	n, err := New("n", spec(1000), tr, ncc.Default(), monday)
	if err != nil {
		t.Fatal(err)
	}
	// At 10:00 on Monday the owner is at work: inactive 0.
	if tr.BusyAt(monday.Add(10 * time.Hour)) {
		if got := n.InactiveFor(monday.Add(10 * time.Hour)); got != 0 {
			t.Fatalf("InactiveFor while busy = %v", got)
		}
	}
	// At 20:00 the owner left at 18:00: inactive ≈ 2h (capped at lookback).
	evening := monday.Add(20 * time.Hour)
	if !tr.BusyAt(evening) {
		got := n.InactiveFor(evening)
		if got < time.Hour {
			t.Fatalf("InactiveFor at 20:00 = %v, want >= 1h", got)
		}
	}
	// Dedicated nodes are maximally inactive.
	d := dedicatedNode(t, 100, monday)
	if got := d.InactiveFor(monday); got != lookback {
		t.Fatalf("dedicated InactiveFor = %v", got)
	}
}

func TestOwnerSlowdownGreedyVsYielding(t *testing.T) {
	mk := func(mode ncc.Mode) *Node {
		tr := usage.NewTrace(usage.AlwaysBusy, 5) // owner demands ~0.8 CPU
		pol := ncc.Policy{Mode: mode, CPUFraction: 0.5, RAMFraction: 0.5, IdleAfter: time.Minute}
		n, err := New("n", spec(1000), tr, pol, monday)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	at := monday.Add(10 * time.Hour)

	greedy := mk(ncc.ModeGreedy)
	if err := greedy.StartTask(at, Task{ID: "g", Work: 1e9, Alloc: resource.Vector{MIPS: 500}}); err != nil {
		t.Fatal(err)
	}
	if s := greedy.OwnerSlowdown(at); s <= 1.2 {
		t.Fatalf("greedy slowdown = %v, want > 1.2", s)
	}

	shared := mk(ncc.ModeShared)
	if err := shared.StartTask(at, Task{ID: "s", Work: 1e9, Alloc: resource.Vector{MIPS: 200}}); err != nil {
		t.Fatal(err)
	}
	if s := shared.OwnerSlowdown(at); s != 1 {
		t.Fatalf("shared slowdown = %v, want 1", s)
	}
}

func TestSuspendedTasksMakeNoProgress(t *testing.T) {
	// Shared-mode node whose owner saturates the CPU: tasks suspend (no
	// eviction) and make no progress.
	tr := usage.NewTrace(usage.AlwaysBusy, 5)
	pol := ncc.Policy{Mode: ncc.ModeShared, CPUFraction: 0.9, RAMFraction: 0.9, IdleAfter: time.Minute}
	n, err := New("n", spec(1000), tr, pol, monday)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StartTask(monday, Task{ID: "t", Work: 1e9, Alloc: resource.Vector{MIPS: 900}}); err != nil {
		t.Fatal(err)
	}
	done, evicted := n.Sync(monday.Add(time.Hour))
	if len(done) != 0 || len(evicted) != 0 {
		t.Fatalf("done=%v evicted=%v", done, evicted)
	}
	// AlwaysBusy owner uses ~0.8 CPU, so grid gets ~0.2: some progress but
	// far less than full speed.
	delivered := n.DeliveredWork()
	full := 900.0 * 3600
	if delivered <= 0 {
		t.Fatal("no progress at all")
	}
	if delivered > full/2 {
		t.Fatalf("delivered %v, want far below full-speed %v", delivered, full)
	}
}

func TestTaskStateString(t *testing.T) {
	for _, s := range []TaskState{TaskRunning, TaskDone, TaskEvicted, TaskState(99)} {
		if s.String() == "" {
			t.Fatal("empty TaskState string")
		}
	}
}

// Property: a dedicated node never delivers more work than its CPU could
// physically execute in the elapsed time, for any task mix.
func TestDeliveredWorkBoundedProperty(t *testing.T) {
	f := func(allocs []uint8, hours uint8) bool {
		elapsed := time.Duration(int(hours%24)+1) * time.Hour
		n, err := New("p", spec(1000), nil, ncc.Generous(), monday)
		if err != nil {
			return false
		}
		for i, a := range allocs {
			if i >= 8 {
				break
			}
			mips := float64(int(a)%1000) + 1
			_ = n.StartTask(monday, Task{
				ID:    fmt.Sprintf("t%d", i),
				Work:  1e12,
				Alloc: resource.Vector{MIPS: mips},
			})
		}
		n.Sync(monday.Add(elapsed))
		ceiling := 1000 * elapsed.Seconds() * 1.001 // capacity x time (+ float slack)
		return n.DeliveredWork() <= ceiling
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: progress accounting is exact for a single full-allocation task
// regardless of how the elapsed time is sliced into Sync calls.
func TestSyncSlicingInvariance(t *testing.T) {
	f := func(cuts []uint8) bool {
		n, err := New("p", spec(1000), nil, ncc.Generous(), monday)
		if err != nil {
			return false
		}
		if err := n.StartTask(monday, Task{ID: "t", Work: 1e12, Alloc: resource.Vector{MIPS: 1000}}); err != nil {
			return false
		}
		now := monday
		var total time.Duration
		for i, c := range cuts {
			if i >= 10 {
				break
			}
			step := time.Duration(int(c)%90+1) * time.Minute
			now = now.Add(step)
			total += step
			n.Sync(now)
		}
		want := 1000 * total.Seconds()
		got := n.DeliveredWork()
		if total == 0 {
			return got == 0
		}
		return got > want*0.999 && got < want*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

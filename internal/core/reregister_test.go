package core

import (
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/testutil/seeds"
)

// TestQuorumKillReregistrationTime runs E13's fleet — eight dedicated
// 1000-MIPS nodes on 15-s updates, a three-member replica set, seed 1 — and
// kills the leader 35 minutes into the bag. It pins the time from the kill
// until every LRM has re-registered with the new leader: the successor calls
// the LRMs its running tasks are on as it takes office, and each registers with
// it at once, well before two failed updates would send it looking.
func TestQuorumKillReregistrationTime(t *testing.T) {
	g := NewGrid(WithSeed(1))
	defer g.Stop()
	c, err := g.AddCluster("fleet", WithReplicaSet(3), WithSchedulePeriod(30*time.Second), WithUpdatePeriod(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(8, 1000)); err != nil {
		t.Fatal(err)
	}
	g.EnableChaos(1)
	if _, err := g.SubmitTo("fleet", asct.NewApplication("bag").
		Parametric(24, 30*60*1000).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64})); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(35 * time.Minute); err != nil {
		t.Fatal(err)
	}
	failed := c.GRM()
	if err := g.CrashGRM("fleet"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Duration(0)
	for ; elapsed <= 5*time.Minute; elapsed += time.Second {
		done := 0
		for _, l := range c.LRMs() {
			if l.Stats().Reregistrations > 0 {
				done++
			}
		}
		if done == len(c.LRMs()) {
			break
		}
		if err := g.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("every LRM re-registered %v after the kill", elapsed)
	succ := c.GRM()
	if succ == failed {
		t.Fatal("no new leader")
	}
	for _, l := range c.LRMs() {
		if st := l.Stats(); st.Reregistrations != 1 || l.Fence() != succ.Epoch() {
			t.Errorf("%s: %d re-registrations, fence %d; want 1 at the new leader's epoch %d",
				l.Node().ID(), st.Reregistrations, l.Fence(), succ.Epoch())
		}
	}
	if want := 7 * time.Second; elapsed != want {
		t.Fatalf("every LRM re-registered %v after the kill, want %v", elapsed, want)
	}
}

// TestSuccessorRollsBackToReportedProgress: a checkpointing task runs on a
// node that outlives the leader's death. The log holds the task's progress as
// of its placement, 0: progress is soft state. The successor calls the node as
// it takes office, hears its progress, and when the node then crashes, rolls
// the task back to the checkpoint boundary of that progress, not to where the
// task was placed. (Had the node died before the successor heard from it, the
// task would restart from its placement point.)
func TestSuccessorRollsBackToReportedProgress(t *testing.T) {
	seeds.Run(t, successorRollsBackToReportedProgress)
}

func successorRollsBackToReportedProgress(t *testing.T, seed int64) {
	const ckpt = 60_000 // MI: a minute at 1000 MIPS
	g, c := replicaGrid(t, seed)
	defer g.Stop()
	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader := c.GRM()
	h, err := g.SubmitTo("c1", asct.NewApplication("outlives").
		Sequential(4*3600*1000).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}).
		Checkpoint(ckpt).
		RestartEvicted())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	task := func(gm *grm.GRM) protocol.TaskStatus {
		t.Helper()
		st, err := gm.AppStatus(h.ID())
		if err != nil {
			t.Fatal(err)
		}
		return st.Tasks[0]
	}
	victim := task(leader).NodeID
	for _, r := range c.replicaGRMs() {
		if got := task(r); r != leader && (got.State != protocol.TaskRunning || got.Progress != 0) {
			t.Fatalf("a follower holds %+v, want running at its placement's progress 0", got)
		}
	}

	if err := g.CrashGRM("c1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	succ := c.GRM()
	if succ == leader {
		t.Fatal("no successor")
	}
	heard := task(succ)
	if heard.NodeID != victim || heard.Progress < 20*ckpt {
		t.Fatalf("the successor holds %+v a minute on, want the progress of 20 min on %s", heard, victim)
	}
	if err := c.CrashNodeSilently(victim, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	lost := succ.Stats().WorkLostMI
	for elapsed := time.Duration(0); ; elapsed += 15 * time.Second {
		if task(succ).NodeID != victim {
			break
		}
		if elapsed > 30*time.Minute {
			t.Fatalf("the task is still on %s half an hour after it crashed", victim)
		}
		if err := g.Advance(15 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	lost = succ.Stats().WorkLostMI - lost
	resumed := task(succ)
	if resumed.Restarts != 1 || resumed.State != protocol.TaskRunning {
		t.Fatalf("after the crash the successor holds %+v, want it running again after one restart", resumed)
	}
	if lost >= ckpt || resumed.Progress < heard.Progress-ckpt {
		t.Fatalf("the task lost %v MI and resumed at %v, want under one checkpoint lost from the %v the node reported",
			lost, resumed.Progress, heard.Progress)
	}
}

package core

import (
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/resource"
)

// TestQuorumKillReregistrationTime runs E13's fleet — eight dedicated
// 1000-MIPS nodes on 15-s updates, a three-member replica set, seed 1 — and
// kills the leader 35 minutes into the bag. It pins the time from the kill
// until every LRM has re-registered with the new leader. The LRMs notice the
// dead leader after two failed updates, then try the members in turn from the
// one after the incumbent, whose forward sends them to the leader; E13's
// recover_s counts only until the leader's offers, mirrored from the dead
// one's stream, cover the fleet.
func TestQuorumKillReregistrationTime(t *testing.T) {
	g := NewGrid(WithSeed(1))
	defer g.Stop()
	c, err := g.AddCluster("fleet", WithSchedulePeriod(30*time.Second), WithUpdatePeriod(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(8, 1000)); err != nil {
		t.Fatal(err)
	}
	g.EnableChaos(1)
	if err := c.EnableReplicaSet(2); err != nil {
		t.Fatal(err)
	}
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
	if want := 35 * time.Second; elapsed != want {
		t.Fatalf("every LRM re-registered %v after the kill, want %v", elapsed, want)
	}
}

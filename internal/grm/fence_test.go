package grm

import (
	"testing"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// TestApplyReplicaEntryDropsGarbage: a corrupt quorum log entry is counted
// and dropped, never applied and never a panic.
func TestApplyReplicaEntryDropsGarbage(t *testing.T) {
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	g.FollowAt(1)
	defer g.Stop()

	g.ApplyReplicaEntry(1, 1, []byte{0xff, 0xfe, 0xfd})
	if got := g.Stats().ReplicaDecodeFailures; got != 1 {
		t.Fatalf("ReplicaDecodeFailures = %d, want 1", got)
	}

	var e orb.Encoder
	replicaBatch{ClusterID: "test", Apps: []*appInfo{{id: "app-log"}}}.encode(&e)
	g.ApplyReplicaEntry(2, 1, e.Bytes())
	if _, err := g.AppStatus("app-log"); err != nil {
		t.Fatalf("valid log entry not applied: %v", err)
	}
	if got := g.Stats().QuorumBatches; got != 1 {
		t.Fatalf("QuorumBatches = %d, want 1", got)
	}
}

// TestStandbyIgnoresForeignClusterBatches: log entries carry the proposing
// cluster's ID, and a follower — its cluster leader's standby — drops an
// entry from another cluster's log.
func TestStandbyIgnoresForeignClusterBatches(t *testing.T) {
	g := New("test", sim.NewVirtualClock(), orb.New())
	g.FollowAt(1)
	defer g.Stop()

	var e orb.Encoder
	replicaBatch{
		ClusterID: "other",
		Nodes:     []nodeEntry{{lv: &nodeLiveness{status: protocol.NodeStatus{NodeID: "n-other"}}}},
		Apps:      []*appInfo{{id: "app-other"}},
	}.encode(&e)
	g.ApplyReplicaEntry(1, 1, e.Bytes())
	if _, err := g.AppStatus("app-other"); err == nil {
		t.Fatal("another cluster's entry was applied")
	}
	if got := g.Stats().ReplicaBatches; got != 0 {
		t.Fatalf("foreign batches applied: %d", got)
	}
	if got := g.KnownNodes(); got != 0 {
		t.Fatalf("foreign nodes mirrored: %d", got)
	}
}

// TestReplicaBatchRoundTrip pins the wire format.
func TestReplicaBatchRoundTrip(t *testing.T) {
	in := replicaBatch{
		ClusterID: "test",
		Seq:       7,
		Apps:      []*appInfo{{id: "app-1"}},
	}
	var e orb.Encoder
	in.encode(&e)
	out, err := decodeReplicaBatch(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.ClusterID != in.ClusterID || out.Seq != in.Seq || len(out.Apps) != 1 {
		t.Fatalf("round trip = %+v", out)
	}
}

package grm

import (
	"encoding/binary"
	"testing"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
	"integrade/internal/testutil/allocbudget"
)

// FuzzReplicaBatch throws arbitrary bytes at the replica ingestion path, the
// quorum-log Apply callback, asserting that a corrupt entry from a buggy or
// hostile peer never panics a follower.
func FuzzReplicaBatch(f *testing.F) {
	var e orb.Encoder
	replicaBatch{
		ClusterID: "test",
		Seq:       3,
		Nodes:     []protocol.NodeStatus{{NodeID: "n0"}},
		NodesGone: []nodeGone{{NodeID: "n1"}},
		Apps:      []appRecord{{ID: "app-1"}},
	}.encode(&e)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		clock := sim.NewVirtualClock()
		g := New("test", clock, orb.New())
		g.FollowAt(1)
		defer g.Stop()

		g.ApplyReplicaEntry(1, 1, data)
	})
}

// TestReplicaCountsAreBounded: a replica batch whose dead-node, task or queue
// count claims a million entries it does not carry fails without allocating
// for them.
func TestReplicaCountsAreBounded(t *testing.T) {
	// claim encodes b, cuts it after the count that ends at end bytes from the
	// end of the encoding, and sets that count to a million.
	claim := func(b replicaBatch, end int) []byte {
		var e orb.Encoder
		b.encode(&e)
		body := e.Bytes()[:e.Len()-end]
		binary.BigEndian.PutUint32(body[len(body)-4:], 1<<20)
		return body
	}
	for name, body := range map[string][]byte{
		"dead nodes":  claim(replicaBatch{ClusterID: "c"}, 4+1),                             // then apps, sched flag
		"app tasks":   claim(replicaBatch{ClusterID: "c", Apps: []appRecord{{ID: "a"}}}, 1), // then the sched flag
		"queued apps": claim(replicaBatch{ClusterID: "c", Sched: &schedRecord{}}, 5*8),      // then five counters
	} {
		var err error
		got := allocbudget.Bytes(func() { _, err = decodeReplicaBatch(orb.NewDecoder(body)) })
		if err == nil || got > allocbudget.FewKiB {
			t.Errorf("%s: a million absent entries: err %v, %d KiB allocated", name, err, got>>10)
		}
	}
}

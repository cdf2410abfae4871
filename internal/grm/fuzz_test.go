package grm

import (
	"encoding/binary"
	"testing"
	"time"

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
		Nodes: []nodeEntry{
			{lv: &nodeLiveness{status: protocol.NodeStatus{NodeID: "n0"}, departUntil: time.Unix(600, 0)}},
			{id: "n1"},
		},
		Apps:  []*appInfo{{id: "app-1", tasks: []*taskInfo{{id: "app-1/t0"}}}},
		Queue: &schedRecord{QueuedIDs: []string{"app-1"}},
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

// TestReplicaCountsAreBounded: a replica batch whose node, app, task or queue
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
		"nodes":       claim(replicaBatch{ClusterID: "c"}, 4+1),                            // then apps, queue flag
		"apps":        claim(replicaBatch{ClusterID: "c"}, 1),                              // then the queue flag
		"app tasks":   claim(replicaBatch{ClusterID: "c", Apps: []*appInfo{{id: "a"}}}, 1), // then the queue flag
		"queued apps": claim(replicaBatch{ClusterID: "c", Queue: &schedRecord{}}, 5*8),     // then five counters
	} {
		var err error
		got := allocbudget.Bytes(func() { _, err = decodeReplicaBatch(orb.NewDecoder(body)) })
		if err == nil || got > allocbudget.FewKiB {
			t.Errorf("%s: a million absent entries: err %v, %d KiB allocated", name, err, got>>10)
		}
	}
}

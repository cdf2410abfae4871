package election

import (
	"encoding/binary"
	"testing"

	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/testutil/allocbudget"
)

// FuzzAppendEntries drives arbitrary bytes through the peer-facing servant:
// a corrupt AppendEntries or RequestVote payload from a compromised or
// buggy peer must surface as a decode error, never a panic or an
// out-of-range log access on the receiving member.
func FuzzAppendEntries(f *testing.F) {
	// Seed with well-formed frames of both ops, including a log suffix.
	var e1 orb.Encoder
	encodeAppendEntries(appendEntries{
		Term: 3, Leader: "m1", PrevLogIndex: 1, PrevLogTerm: 1,
		Entries:      []entry{{Term: 3, Data: []byte("batch")}},
		LeaderCommit: 1,
	}, &e1)
	f.Add(e1.Bytes(), true)
	var e2 orb.Encoder
	encodeRequestVote(requestVote{Term: 2, Candidate: "m2", LastLogIndex: 4, LastLogTerm: 1}, &e2)
	f.Add(e2.Bytes(), false)
	f.Add([]byte{}, true)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, true)

	f.Fuzz(func(t *testing.T, data []byte, asAppend bool) {
		clock := sim.NewVirtualClock()
		n := NewNode(Config{
			ID:    "m0",
			Clock: clock,
			RNG:   sim.NewRNG(1),
			Inv:   orb.New(),
		})
		n.Start()
		defer n.Stop()
		// Give the node a short log so conflict/truncation paths execute.
		n.mu.Lock()
		n.entries = []entry{{Term: 1, Data: []byte("a")}, {Term: 1, Data: []byte("b")}}
		n.mu.Unlock()
		sv := n.Servant()
		op := OpRequestVote
		if asAppend {
			op = OpAppendEntries
		}
		_, _ = sv.Dispatch(op, orb.NewDecoder(data))
	})
}

// TestAppendEntriesCountIsBounded: an AppendEntries that claims a million
// entries it does not carry fails without allocating for them.
func TestAppendEntriesCountIsBounded(t *testing.T) {
	var e orb.Encoder
	encodeAppendEntries(appendEntries{Term: 1, Leader: "m1"}, &e)
	body := e.Bytes()
	binary.BigEndian.PutUint32(body[len(body)-8-4:], 1<<20) // the count, then LeaderCommit
	var err error
	got := allocbudget.Bytes(func() { _, err = decodeAppendEntries(orb.NewDecoder(body)) })
	if err == nil || got > allocbudget.FewKiB {
		t.Fatalf("a million absent entries: err %v, %d KiB allocated", err, got>>10)
	}
}

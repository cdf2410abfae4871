package election

import (
	"testing"

	"integrade/internal/testutil/optest"
)

// TestOpsRoundTrip checks both peer operations' declarations against
// themselves (optest.Check).
func TestOpsRoundTrip(t *testing.T) {
	optest.Check(t, requestVoteOp,
		requestVote{Term: 4, Candidate: "m2", LastLogIndex: 9, LastLogTerm: 3},
		voteReply{Term: 4, Granted: true})
	optest.Check(t, appendEntriesOp,
		appendEntries{Term: 4, Leader: "m1", PrevLogIndex: 2, PrevLogTerm: 3,
			Entries: []entry{{Term: 4, Data: []byte("batch")}}, LeaderCommit: 2},
		appendReply{Term: 4, Success: true, MatchIndex: 3})
}

package election

import (
	"integrade/internal/orb"
)

// Servant exposes the node's peer-facing interface. Register it under
// ObjectKey on the same adapter as the member's other servants.
func (n *Node) Servant() orb.Servant {
	m := orb.NewOpMux()
	orb.Serve(m, requestVoteOp, func(rv requestVote) (voteReply, error) {
		return n.handleRequestVote(rv), nil
	})
	orb.Serve(m, appendEntriesOp, func(ae appendEntries) (appendReply, error) {
		return n.handleAppend(ae), nil
	})
	return m
}

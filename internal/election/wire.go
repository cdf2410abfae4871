// Package election is a minimal Raft-style leader-election and replicated-
// log layer for the GRM control plane: terms, RequestVote/AppendEntries over
// ORB invokes, randomized election timeouts off sim.Clock/sim.RNG (so chaos
// runs stay deterministic), and persistent term/vote through a Stable store.
//
// It deliberately implements only what the GRM needs — single-entry-type
// log, in-memory entries with persistent term/vote, no snapshots, no
// membership changes. The load-bearing safety properties are the Raft ones:
// at most one leader per term (quorum vote intersection), a leader only
// commits entries from its own term after a quorum acknowledges them, and a
// deposed leader's term is a fencing epoch every consumer can compare
// against.
package election

import (
	"integrade/internal/orb"
)

// ObjectKey is the adapter key election servants register under; a replica's
// election endpoint is the manager endpoint + this key.
const ObjectKey = "election"

// Wire operations between election peers.
const (
	OpRequestVote   = "requestVote"
	OpAppendEntries = "appendEntries"
)

// The two peer operations, declared once for Node's calls and its Servant.
var (
	requestVoteOp = &orb.Op[requestVote, voteReply]{Name: OpRequestVote,
		EncodeReq: encodeRequestVote, DecodeReq: decodeRequestVote,
		EncodeRep: encodeVoteReply, DecodeRep: decodeVoteReply}
	appendEntriesOp = &orb.Op[appendEntries, appendReply]{Name: OpAppendEntries,
		EncodeReq: encodeAppendEntries, DecodeReq: decodeAppendEntries,
		EncodeRep: encodeAppendReply, DecodeRep: decodeAppendReply}
)

// entry is one replicated-log record: an opaque payload stamped with the
// term of the leader that appended it.
type entry struct {
	Term int
	Data []byte
}

// requestVote is a candidate's ballot: its term and how up-to-date its log
// is, which voters use to refuse candidates that would lose committed data.
type requestVote struct {
	Term         int
	Candidate    string
	LastLogIndex int
	LastLogTerm  int
}

// voteReply carries the voter's term (so a stale candidate steps down) and
// whether the ballot was granted.
type voteReply struct {
	Term    int
	Granted bool
}

// appendEntries is the leader's heartbeat-and-replication message.
type appendEntries struct {
	Term         int
	Leader       string
	PrevLogIndex int
	PrevLogTerm  int
	Entries      []entry
	LeaderCommit int
}

// appendReply reports the follower's term, whether the append matched its
// log, and the highest index known to match — on failure a backoff hint so
// the leader can jump nextIndex instead of probing one entry at a time.
type appendReply struct {
	Term       int
	Success    bool
	MatchIndex int
}

func encodeRequestVote(rv requestVote, e *orb.Encoder) {
	e.PutInt(rv.Term)
	e.PutString(rv.Candidate)
	e.PutInt(rv.LastLogIndex)
	e.PutInt(rv.LastLogTerm)
}

func decodeRequestVote(d *orb.Decoder) (requestVote, error) {
	rv := requestVote{
		Term:      d.Int(),
		Candidate: d.String(),
	}
	rv.LastLogIndex = d.Int()
	rv.LastLogTerm = d.Int()
	return rv, d.Err()
}

func encodeVoteReply(vr voteReply, e *orb.Encoder) {
	e.PutInt(vr.Term)
	e.PutBool(vr.Granted)
}

func decodeVoteReply(d *orb.Decoder) (voteReply, error) {
	vr := voteReply{
		Term:    d.Int(),
		Granted: d.Bool(),
	}
	return vr, d.Err()
}

func encodeAppendEntries(ae appendEntries, e *orb.Encoder) {
	e.PutInt(ae.Term)
	e.PutString(ae.Leader)
	e.PutInt(ae.PrevLogIndex)
	e.PutInt(ae.PrevLogTerm)
	e.PutU32(uint32(len(ae.Entries)))
	for _, ent := range ae.Entries {
		e.PutInt(ent.Term)
		e.PutBytes(ent.Data)
	}
	e.PutInt(ae.LeaderCommit)
}

func decodeAppendEntries(d *orb.Decoder) (appendEntries, error) {
	ae := appendEntries{
		Term:   d.Int(),
		Leader: d.String(),
	}
	ae.PrevLogIndex = d.Int()
	ae.PrevLogTerm = d.Int()
	n := d.Count(8 + 4)
	if err := d.Err(); err != nil {
		return appendEntries{}, err
	}
	for i := 0; i < n; i++ {
		ent := entry{Term: d.Int()}
		ent.Data = d.Bytes()
		ae.Entries = append(ae.Entries, ent)
	}
	ae.LeaderCommit = d.Int()
	return ae, d.Err()
}

func encodeAppendReply(ar appendReply, e *orb.Encoder) {
	e.PutInt(ar.Term)
	e.PutBool(ar.Success)
	e.PutInt(ar.MatchIndex)
}

func decodeAppendReply(d *orb.Decoder) (appendReply, error) {
	ar := appendReply{
		Term:    d.Int(),
		Success: d.Bool(),
	}
	ar.MatchIndex = d.Int()
	return ar, d.Err()
}

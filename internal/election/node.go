package election

import (
	"log/slog"
	"sort"
	"sync"
	"time"

	"integrade/internal/orb"
	"integrade/internal/sim"
)

// Default timing. The heartbeat must be well under the election timeout
// floor, and the timeout range — from TimeoutMin to twice it, unless
// TimeoutMax is set — wide enough that randomized candidates rarely split a
// vote; the defaults keep a replica set stable on the
// simulated grid's second-scale clock and are overridable for real wires.
const (
	DefaultHeartbeat  = 2 * time.Second
	DefaultTimeoutMin = 6 * time.Second
)

// Role is a node's current standing in the replica set.
type Role int

const (
	Follower Role = iota
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// Stats are cumulative election counters.
type Stats struct {
	Elections        int // candidacies started (election timer fired)
	TermsWon         int // elections this node won
	VotesGranted     int // ballots this node granted to others
	HeartbeatsSent   int // leader heartbeat rounds
	AppendRejected   int // appends refused for log inconsistency
	StaleTermDropped int // messages refused for a stale term
	EntriesCommitted int // log entries applied on this node
	Proposals        int // entries proposed while leader
	ProposalsFailed  int // proposals that missed quorum
}

// Config wires one election node into a replica set.
type Config struct {
	// ID is this node's member name; Peers maps the other members' IDs to
	// their election servant refs (the config must not include ID itself).
	ID    string
	Peers map[string]orb.ObjectRef

	Clock sim.Clock
	RNG   *sim.RNG    // forked internally; the parent stream is not consumed
	Inv   orb.Invoker // outbound transport (wrap with chaos.SourceInvoker for one-way partitions)
	Store Stable      // persistent term/vote; nil means a fresh MemoryStore

	// Apply is called, in log order, once an entry is committed — on the
	// leader after quorum ack, on followers when the leader's commit index
	// reaches them. It runs outside the node's mutex.
	Apply func(index, term int, data []byte)
	// OnLeader fires when this node wins an election; OnFollower fires when
	// it discovers a higher term or another leader. Both run outside the
	// node's mutex and must be idempotent: the same transition can be
	// reported more than once under message races.
	OnLeader   func(term int)
	OnFollower func(term int, leader string)

	Heartbeat  time.Duration
	TimeoutMin time.Duration
	TimeoutMax time.Duration

	// Bootstrap makes this node assume leadership of term 1 at Start when
	// its store is fresh — the deterministic seed for a replica set built
	// around an already-running primary. Ignored after a restart with
	// persisted state.
	Bootstrap bool

	Logger *slog.Logger
}

// Node is one member of the replica set. All work happens on clock callbacks
// and inbound servant calls; the node spawns no goroutines of its own, so a
// virtual clock drives it deterministically.
//
// The mutex is never held across an Invoke, a callback (Apply, OnLeader,
// OnFollower) or a Stable write: state transitions are decided under the
// lock, snapshotted, and acted on after release.
type Node struct {
	id    string
	clock sim.Clock
	inv   orb.Invoker
	store Stable
	apply func(index, term int, data []byte)
	onUp  func(term int)
	onDn  func(term int, leader string)
	log   *slog.Logger

	heartbeat time.Duration
	tmin      time.Duration
	tmax      time.Duration
	bootstrap bool

	// mu guards all mutable election state below.
	//
	//lint:guards rng,peers,role,term,votedFor,leaderID,entries,commitIndex,lastApplied,nextIndex,matchIndex,votes,wonTerms,started,stopped,applying,electionTimer,hbTimer,stats
	mu            sync.Mutex
	rng           *sim.RNG
	peers         map[string]orb.ObjectRef
	role          Role
	term          int
	votedFor      string
	leaderID      string
	entries       []entry
	commitIndex   int
	lastApplied   int
	nextIndex     map[string]int
	matchIndex    map[string]int
	votes         map[string]bool
	wonTerms      []int
	started       bool
	stopped       bool
	applying      bool
	electionTimer sim.Timer
	hbTimer       sim.Timer
	stats         Stats
}

// NewNode builds a node from cfg; call Start to join the replica set.
func NewNode(cfg Config) *Node {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.TimeoutMin <= 0 {
		cfg.TimeoutMin = DefaultTimeoutMin
	}
	if cfg.TimeoutMax <= cfg.TimeoutMin {
		cfg.TimeoutMax = cfg.TimeoutMin * 2
	}
	if cfg.Store == nil {
		cfg.Store = NewMemoryStore()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	peers := make(map[string]orb.ObjectRef, len(cfg.Peers))
	for id, ref := range cfg.Peers {
		if id != cfg.ID {
			peers[id] = ref
		}
	}
	return &Node{
		id:         cfg.ID,
		clock:      cfg.Clock,
		inv:        cfg.Inv,
		store:      cfg.Store,
		apply:      cfg.Apply,
		onUp:       cfg.OnLeader,
		onDn:       cfg.OnFollower,
		log:        cfg.Logger,
		heartbeat:  cfg.Heartbeat,
		tmin:       cfg.TimeoutMin,
		tmax:       cfg.TimeoutMax,
		bootstrap:  cfg.Bootstrap,
		rng:        cfg.RNG.Fork("election-" + cfg.ID),
		peers:      peers,
		nextIndex:  make(map[string]int),
		matchIndex: make(map[string]int),
	}
}

// ID returns the node's member name.
func (n *Node) ID() string { return n.id }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term — the fencing epoch its leader
// stamps on outbound writes.
func (n *Node) Term() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Leader returns the member this node believes leads the current term
// (possibly itself, possibly empty during an election).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID
}

// WonTerms returns the terms this node won, in order. The split-brain suite
// intersects these across the replica set: any term in two nodes' lists
// would be a safety violation.
func (n *Node) WonTerms() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int, len(n.wonTerms))
	copy(out, n.wonTerms)
	return out
}

// Stats returns a snapshot of the election counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Start loads persisted state and joins the replica set: a fresh bootstrap
// node assumes term 1 leadership, everyone else starts as a follower with a
// randomized election timeout running.
func (n *Node) Start() {
	term, vote, err := n.store.Load()
	if err != nil {
		n.log.Warn("election: loading hard state", "id", n.id, "err", err)
		term, vote = 0, ""
	}
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.term = term
	n.votedFor = vote
	lead := false
	if n.bootstrap && term == 0 {
		n.term = 1
		n.votedFor = n.id
		n.becomeLeaderLocked()
		lead = true
	} else {
		n.role = Follower
		n.armElectionLocked()
	}
	newTerm := n.term
	n.mu.Unlock()
	if newTerm != term || lead {
		n.persist(newTerm)
	}
	if lead {
		n.leaderRound(newTerm)
	}
}

// Stop halts timers and refuses further work. It does not resign leadership
// over the wire — a stopped leader simply goes silent, and the rest of the
// set elects around it.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	n.role = Follower
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.hbTimer != nil {
		n.hbTimer.Stop()
		n.hbTimer = nil
	}
}

// persist writes the hard state for the given term. The vote is re-read
// under the lock so a concurrent grant in the same term is not lost; a
// write for a term the node has already left is skipped rather than
// clobbering newer state.
func (n *Node) persist(term int) {
	n.mu.Lock()
	if term < n.term {
		n.mu.Unlock()
		return
	}
	vote := n.votedFor
	n.mu.Unlock()
	if err := n.store.Save(term, vote); err != nil {
		n.log.Warn("election: persisting hard state", "id", n.id, "term", term, "err", err)
	}
}

// quorumLocked is the majority threshold for the full set (peers + self).
func (n *Node) quorumLocked() int { return (len(n.peers)+1)/2 + 1 }

func (n *Node) lastTermLocked() int {
	if len(n.entries) == 0 {
		return 0
	}
	return n.entries[len(n.entries)-1].Term
}

func (n *Node) termAtLocked(index int) int {
	if index <= 0 || index > len(n.entries) {
		return 0
	}
	return n.entries[index-1].Term
}

func (n *Node) sortedPeerIDsLocked() []string {
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// armElectionLocked (re)starts the randomized election timeout. Leaders
// don't run one; every heartbeat and granted vote resets it.
func (n *Node) armElectionLocked() {
	if n.stopped || n.role == Leader {
		return
	}
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	d := n.tmin
	if span := int(n.tmax - n.tmin); span > 0 {
		d += time.Duration(n.rng.Intn(span + 1))
	}
	n.electionTimer = n.clock.AfterFunc(d, n.electionTick)
}

// electionTick starts a candidacy: bump the term, vote for self, solicit
// the rest of the set.
func (n *Node) electionTick() {
	n.mu.Lock()
	if n.stopped || n.role == Leader {
		n.mu.Unlock()
		return
	}
	n.term++
	n.role = Candidate
	n.votedFor = n.id
	n.leaderID = ""
	n.votes = map[string]bool{n.id: true}
	n.stats.Elections++
	term := n.term
	req := requestVote{
		Term:         term,
		Candidate:    n.id,
		LastLogIndex: len(n.entries),
		LastLogTerm:  n.lastTermLocked(),
	}
	won := len(n.votes) >= n.quorumLocked()
	if won {
		n.becomeLeaderLocked()
	} else {
		n.armElectionLocked() // a split vote retries on a fresh timeout
	}
	peerIDs := n.sortedPeerIDsLocked()
	refs := make([]orb.ObjectRef, len(peerIDs))
	for i, id := range peerIDs {
		refs[i] = n.peers[id]
	}
	n.mu.Unlock()

	n.persist(term)
	if won { // single-node set
		n.leaderRound(term)
		return
	}
	var e orb.Encoder
	encodeRequestVote(&e, req)
	arg := e.Bytes()
	for i, id := range peerIDs {
		reply, err := n.inv.Invoke(refs[i], OpRequestVote, arg)
		if err != nil {
			continue
		}
		vr, err := decodeVoteReply(orb.NewDecoder(reply))
		if err != nil {
			continue
		}
		if n.handleVoteReply(id, term, vr) {
			return // won and finished the first leader round
		}
	}
}

// handleVoteReply tallies one ballot; it returns true once the candidacy
// has been won and the first leader round has been driven.
func (n *Node) handleVoteReply(peerID string, candTerm int, vr voteReply) bool {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return false
	}
	if vr.Term > n.term {
		cb := n.stepDownLocked(vr.Term, "")
		newTerm := n.term
		n.mu.Unlock()
		n.persist(newTerm)
		if cb != nil {
			cb()
		}
		return false
	}
	if n.role != Candidate || n.term != candTerm || !vr.Granted {
		n.mu.Unlock()
		return false
	}
	n.votes[peerID] = true
	if len(n.votes) < n.quorumLocked() {
		n.mu.Unlock()
		return false
	}
	n.becomeLeaderLocked()
	n.mu.Unlock()
	n.leaderRound(candTerm)
	return true
}

// becomeLeaderLocked flips the node into leadership of the current term.
// The caller must follow up with leaderRound outside the lock.
func (n *Node) becomeLeaderLocked() {
	n.role = Leader
	n.leaderID = n.id
	n.wonTerms = append(n.wonTerms, n.term)
	n.stats.TermsWon++
	for id := range n.peers {
		n.nextIndex[id] = len(n.entries) + 1
		n.matchIndex[id] = 0
	}
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.hbTimer != nil {
		n.hbTimer.Stop()
	}
	n.hbTimer = n.clock.AfterFunc(n.heartbeat, n.heartbeatTick)
}

// leaderRound runs the out-of-lock half of taking office: report the win,
// then assert authority with an immediate append round.
func (n *Node) leaderRound(term int) {
	if n.onUp != nil {
		n.onUp(term)
	}
	n.broadcastAppend()
}

func (n *Node) heartbeatTick() {
	n.mu.Lock()
	if n.stopped || n.role != Leader {
		n.mu.Unlock()
		return
	}
	n.stats.HeartbeatsSent++
	n.hbTimer = n.clock.AfterFunc(n.heartbeat, n.heartbeatTick)
	n.mu.Unlock()
	n.broadcastAppend()
}

// appendTarget is one peer's snapshotted AppendEntries payload.
type appendTarget struct {
	peer string
	ref  orb.ObjectRef
	req  appendEntries
}

// broadcastAppend sends each peer the log suffix it is missing (or an empty
// heartbeat), processes replies, and delivers anything newly committed.
func (n *Node) broadcastAppend() {
	n.mu.Lock()
	if n.stopped || n.role != Leader {
		n.mu.Unlock()
		return
	}
	term := n.term
	targets := make([]appendTarget, 0, len(n.peers))
	for _, id := range n.sortedPeerIDsLocked() {
		ni := n.nextIndex[id]
		if ni < 1 {
			ni = len(n.entries) + 1
		}
		prevIdx := ni - 1
		suffix := make([]entry, len(n.entries)-prevIdx)
		copy(suffix, n.entries[prevIdx:])
		targets = append(targets, appendTarget{
			peer: id,
			ref:  n.peers[id],
			req: appendEntries{
				Term:         term,
				Leader:       n.id,
				PrevLogIndex: prevIdx,
				PrevLogTerm:  n.termAtLocked(prevIdx),
				Entries:      suffix,
				LeaderCommit: n.commitIndex,
			},
		})
	}
	n.mu.Unlock()

	for _, t := range targets {
		n.sendAppend(t, term)
	}
	n.deliverCommitted()
}

// sendAppend ships one peer's AppendEntries and folds the reply back in.
func (n *Node) sendAppend(t appendTarget, term int) {
	var e orb.Encoder
	encodeAppendEntries(&e, t.req)
	reply, err := n.inv.Invoke(t.ref, OpAppendEntries, e.Bytes())
	if err != nil {
		return
	}
	ar, err := decodeAppendReply(orb.NewDecoder(reply))
	if err != nil {
		return
	}
	n.handleAppendReply(t.peer, term, ar)
}

func (n *Node) handleAppendReply(peerID string, term int, ar appendReply) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if ar.Term > n.term {
		cb := n.stepDownLocked(ar.Term, "")
		newTerm := n.term
		n.mu.Unlock()
		n.persist(newTerm)
		if cb != nil {
			cb()
		}
		return
	}
	if n.role != Leader || n.term != term {
		n.mu.Unlock()
		return
	}
	if ar.Success {
		if ar.MatchIndex > n.matchIndex[peerID] {
			n.matchIndex[peerID] = ar.MatchIndex
		}
		n.nextIndex[peerID] = n.matchIndex[peerID] + 1
		n.advanceCommitLocked()
	} else {
		// Back off toward the follower's hint; never below 1.
		ni := n.nextIndex[peerID]
		if hint := ar.MatchIndex + 1; hint < ni {
			ni = hint
		} else {
			ni--
		}
		if ni < 1 {
			ni = 1
		}
		n.nextIndex[peerID] = ni
	}
	n.mu.Unlock()
}

// advanceCommitLocked moves the commit index to the quorum-replicated
// median, restricted (per Raft) to entries from the leader's own term.
func (n *Node) advanceCommitLocked() {
	matches := make([]int, 0, len(n.peers)+1)
	matches = append(matches, len(n.entries)) // the leader's own log
	for _, id := range n.sortedPeerIDsLocked() {
		matches = append(matches, n.matchIndex[id])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(matches)))
	candidate := matches[n.quorumLocked()-1]
	if candidate > n.commitIndex && n.termAtLocked(candidate) == n.term {
		n.commitIndex = candidate
	}
}

// Propose appends data to the replicated log and drives append rounds until
// a quorum has acknowledged it. Only the leader accepts proposals; the
// returned term is the entry's fencing epoch.
func (n *Node) Propose(data []byte) (index, term int, err error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, 0, orb.Errorf(orb.CodeApplication, "election: node stopped")
	}
	if n.role != Leader {
		leader := n.leaderID
		n.stats.ProposalsFailed++
		n.mu.Unlock()
		return 0, 0, orb.Errorf(orb.CodeApplication, "election: not leader (leader=%q)", leader)
	}
	n.stats.Proposals++
	n.entries = append(n.entries, entry{Term: n.term, Data: data})
	index = len(n.entries)
	term = n.term
	if len(n.peers) == 0 {
		n.advanceCommitLocked()
	}
	n.mu.Unlock()

	// With the synchronous ORB transports one round normally suffices; a
	// second repairs a lagging follower after nextIndex backoff. More than a
	// handful means no quorum is reachable.
	for round := 0; round < 4 && !n.committedUpTo(index, term); round++ {
		n.broadcastAppend()
	}
	if !n.committedUpTo(index, term) {
		n.mu.Lock()
		n.stats.ProposalsFailed++
		n.mu.Unlock()
		return index, term, orb.Errorf(orb.CodeTimeout, "election: entry %d/term %d not acknowledged by quorum", index, term)
	}
	n.deliverCommitted()
	return index, term, nil
}

func (n *Node) committedUpTo(index, term int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader && n.term == term && n.commitIndex >= index
}

// deliverCommitted applies entries up to the commit index, in order, with
// the mutex released around each callback. The applying latch keeps nested
// delivery (Apply proposing, reentrant appends) single-flight.
func (n *Node) deliverCommitted() {
	n.mu.Lock()
	if n.applying {
		n.mu.Unlock()
		return
	}
	n.applying = true
	for n.lastApplied < n.commitIndex && !n.stopped {
		n.lastApplied++
		idx := n.lastApplied
		ent := n.entries[idx-1]
		n.stats.EntriesCommitted++
		apply := n.apply
		n.mu.Unlock()
		if apply != nil {
			apply(idx, ent.Term, ent.Data)
		}
		n.mu.Lock()
	}
	n.applying = false
	n.mu.Unlock()
}

// stepDownLocked demotes the node into follower state for the given term
// and returns the OnFollower notification to fire after unlock (nil when
// the transition is not worth reporting).
func (n *Node) stepDownLocked(term int, leader string) func() {
	wasUp := n.role != Follower
	bumped := term > n.term
	if bumped {
		n.term = term
		n.votedFor = ""
	}
	n.role = Follower
	n.leaderID = leader
	if n.hbTimer != nil {
		n.hbTimer.Stop()
		n.hbTimer = nil
	}
	n.armElectionLocked()
	if cb := n.onDn; cb != nil && (wasUp || bumped) {
		t := n.term
		return func() { cb(t, leader) }
	}
	return nil
}

// handleRequestVote is the voter side of an election.
func (n *Node) handleRequestVote(req requestVote) voteReply {
	n.mu.Lock()
	if n.stopped || req.Term < n.term {
		n.stats.StaleTermDropped++
		reply := voteReply{Term: n.term}
		n.mu.Unlock()
		return reply
	}
	var cb func()
	if req.Term > n.term {
		cb = n.stepDownLocked(req.Term, "")
	}
	upToDate := req.LastLogTerm > n.lastTermLocked() ||
		(req.LastLogTerm == n.lastTermLocked() && req.LastLogIndex >= len(n.entries))
	granted := (n.votedFor == "" || n.votedFor == req.Candidate) && upToDate
	if granted {
		n.votedFor = req.Candidate
		n.stats.VotesGranted++
		n.armElectionLocked() // a granted ballot defers our own candidacy
	}
	reply := voteReply{Term: n.term, Granted: granted}
	term := n.term
	n.mu.Unlock()
	n.persist(term)
	if cb != nil {
		cb()
	}
	return reply
}

// handleAppend is the follower side of replication and heartbeats.
func (n *Node) handleAppend(req appendEntries) appendReply {
	n.mu.Lock()
	if n.stopped || req.Term < n.term {
		n.stats.StaleTermDropped++
		reply := appendReply{Term: n.term}
		n.mu.Unlock()
		return reply
	}
	var cb func()
	if req.Term > n.term || n.role != Follower {
		cb = n.stepDownLocked(req.Term, req.Leader)
	}
	n.leaderID = req.Leader
	n.armElectionLocked() // the heartbeat: leader is alive
	if req.PrevLogIndex < 0 || req.PrevLogIndex > len(n.entries) ||
		(req.PrevLogIndex > 0 && n.termAtLocked(req.PrevLogIndex) != req.PrevLogTerm) {
		n.stats.AppendRejected++
		hint := req.PrevLogIndex - 1
		if len(n.entries) < hint {
			hint = len(n.entries)
		}
		if hint < 0 {
			hint = 0
		}
		reply := appendReply{Term: n.term, MatchIndex: hint}
		term := n.term
		n.mu.Unlock()
		n.persist(term)
		if cb != nil {
			cb()
		}
		return reply
	}
	for i, ent := range req.Entries {
		idx := req.PrevLogIndex + 1 + i
		if idx <= len(n.entries) {
			if n.entries[idx-1].Term != ent.Term {
				// Conflict: an uncommitted divergent suffix is truncated in
				// favor of the leader's log.
				n.entries = append(n.entries[:idx-1], ent)
			}
		} else {
			n.entries = append(n.entries, ent)
		}
	}
	if req.LeaderCommit > n.commitIndex {
		ci := req.LeaderCommit
		if ci > len(n.entries) {
			ci = len(n.entries)
		}
		n.commitIndex = ci
	}
	reply := appendReply{
		Term:       n.term,
		Success:    true,
		MatchIndex: req.PrevLogIndex + len(req.Entries),
	}
	term := n.term
	n.mu.Unlock()
	n.persist(term)
	if cb != nil {
		cb()
	}
	n.deliverCommitted()
	return reply
}

package election

import (
	"log/slog"
	"slices"
	"strings"
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

// An AppendEntries carries at most maxAppendEntries entries and, past its
// first, at most maxAppendBytes of payload, so a peer far behind catches up
// over several rounds in frames well under the ORB's 64 MiB limit, and an
// entry larger than maxAppendBytes still goes out, alone.
const (
	maxAppendEntries = 64
	maxAppendBytes   = 1 << 20
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

	// peers are the other members, sorted by ID; the slice and each peer's
	// id and ref never change after NewNode.
	peers []peer

	// mu guards all mutable election state below, and each peer's
	// replication progress.
	//
	//lint:guards rng,role,term,votedFor,leaderID,entries,commitIndex,lastApplied,votes,wonTerms,started,stopped,applying,electionTimer,hbTimer,stats
	mu       sync.Mutex
	rng      *sim.RNG
	role     Role
	term     int
	votedFor string
	leaderID string
	// entries only grows in place: a truncation copies what it keeps, so a
	// capped run sliced from it under mu can be read after unlock.
	entries       []entry
	commitIndex   int
	lastApplied   int
	votes         map[string]bool
	wonTerms      []int
	started       bool
	stopped       bool
	applying      bool
	electionTimer sim.Timer
	hbTimer       sim.Timer
	stats         Stats
}

// peer is one other member and, while this node leads, its progress under
// mu: the next entry to send it, the highest index known to be in its log,
// and probe, set while its last append failed or went unanswered.
type peer struct {
	id          string
	ref         orb.ObjectRef
	next, match int
	probe       bool
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
	peers := make([]peer, 0, len(cfg.Peers))
	for id, ref := range cfg.Peers {
		if id != cfg.ID {
			peers = append(peers, peer{id: id, ref: ref})
		}
	}
	slices.SortFunc(peers, func(a, b peer) int { return strings.Compare(a.id, b.id) })
	return &Node{
		id:        cfg.ID,
		clock:     cfg.Clock,
		inv:       cfg.Inv,
		store:     cfg.Store,
		apply:     cfg.Apply,
		onUp:      cfg.OnLeader,
		onDn:      cfg.OnFollower,
		log:       cfg.Logger,
		heartbeat: cfg.Heartbeat,
		tmin:      cfg.TimeoutMin,
		tmax:      cfg.TimeoutMax,
		bootstrap: cfg.Bootstrap,
		peers:     peers,
		rng:       cfg.RNG.Fork("election-" + cfg.ID),
	}
}

// ID returns the node's member name.
func (n *Node) ID() string { return n.id }

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

// quorum is the majority threshold for the full set (peers + self).
func (n *Node) quorum() int { return (len(n.peers)+1)/2 + 1 }

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
	won := len(n.votes) >= n.quorum()
	if won {
		n.becomeLeaderLocked()
	} else {
		n.armElectionLocked() // a split vote retries on a fresh timeout
	}
	n.mu.Unlock()

	n.persist(term)
	if won { // single-node set
		n.leaderRound(term)
		return
	}
	for i := range n.peers {
		p := &n.peers[i] // id and ref only: the rest needs mu
		vr, err := requestVoteOp.Invoke(n.inv, p.ref, req)
		if err != nil {
			continue
		}
		if n.handleVoteReply(p.id, term, vr) {
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
	if len(n.votes) < n.quorum() {
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
	for i := range n.peers {
		n.peers[i].next, n.peers[i].match, n.peers[i].probe = len(n.entries)+1, 0, true
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

// broadcastAppend sends each peer the next run of the log it is missing (or
// an empty heartbeat), processes replies, and delivers anything newly
// committed.
func (n *Node) broadcastAppend() {
	n.mu.Lock()
	if n.stopped || n.role != Leader {
		n.mu.Unlock()
		return
	}
	term := n.term
	reqs := make([]appendEntries, len(n.peers)) // reqs[i] goes to n.peers[i]
	for i, p := range n.peers {
		prev := p.next - 1
		reqs[i] = appendEntries{
			Term:         term,
			Leader:       n.id,
			PrevLogIndex: prev,
			PrevLogTerm:  n.termAtLocked(prev),
			Entries:      n.runLocked(prev, p.probe),
			LeaderCommit: n.commitIndex,
		}
	}
	n.mu.Unlock()

	for i, req := range reqs {
		p := &n.peers[i]
		ar, err := appendEntriesOp.Invoke(n.inv, p.ref, req)
		n.handleAppendReply(p, term, ar, err)
	}
	n.deliverCommitted()
}

// runLocked is the run of entries after index prev one AppendEntries
// carries: one entry to a peer in probe, else up to maxAppendEntries of
// them, the first whatever its size and the rest within maxAppendBytes.
// It aliases n.entries, capped so that no later append shows through.
func (n *Node) runLocked(prev int, probe bool) []entry {
	limit := min(len(n.entries), prev+maxAppendEntries)
	if probe {
		limit = min(limit, prev+1)
	}
	end, size := prev, 0
	for end < limit && (end == prev || size+len(n.entries[end].Data) <= maxAppendBytes) {
		size += len(n.entries[end].Data)
		end++
	}
	return n.entries[prev:end:end]
}

// handleAppendReply folds one peer's answer to an append of term back in:
// an error or a refusal puts the peer in probe, an acknowledgement takes it
// out and may commit.
func (n *Node) handleAppendReply(p *peer, term int, ar appendReply, err error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if err == nil && ar.Term > n.term {
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
	p.probe = err != nil || !ar.Success
	switch {
	case err != nil: // unanswered: the next round resends from p.next
	case ar.Success:
		p.match = max(p.match, ar.MatchIndex)
		p.next = p.match + 1
		n.advanceCommitLocked()
	default:
		// Back off toward the follower's hint; never below 1.
		if hint := ar.MatchIndex + 1; hint < p.next {
			p.next = hint
		} else {
			p.next--
		}
		p.next = max(p.next, 1)
	}
	n.mu.Unlock()
}

// advanceCommitLocked moves the commit index to the quorum-replicated
// median, restricted (per Raft) to entries from the leader's own term.
func (n *Node) advanceCommitLocked() {
	matches := make([]int, 1, len(n.peers)+1)
	matches[0] = len(n.entries) // the leader's own log
	for _, p := range n.peers {
		matches = append(matches, p.match)
	}
	slices.Sort(matches)
	candidate := matches[len(matches)-n.quorum()]
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
		reply := appendReply{Term: n.term, MatchIndex: max(min(req.PrevLogIndex-1, len(n.entries)), 0)}
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
				// favor of the leader's log, into a copy (see entries).
				n.entries = append(n.entries[:idx-1:idx-1], ent)
			}
		} else {
			n.entries = append(n.entries, ent)
		}
	}
	if req.LeaderCommit > n.commitIndex {
		n.commitIndex = min(req.LeaderCommit, len(n.entries))
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

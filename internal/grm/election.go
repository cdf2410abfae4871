package grm

import (
	"integrade/internal/election"
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// Role distinguishes the active cluster manager from a passive replica.
type Role int

// GRM roles.
const (
	// RolePrimary is the active manager: it schedules, detects node
	// failures, and (as a replica-set leader) streams its state into the
	// consensus log. A GRM from New starts as the sole primary of term 1.
	RolePrimary Role = iota
	// RoleFollower is a replica-set member that is not the leader: it applies
	// committed log entries, refuses Information Updates and schedules
	// nothing until the election makes it leader.
	RoleFollower
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleFollower {
		return "follower"
	}
	return "primary"
}

// Role returns the GRM's current role.
func (g *GRM) Role() Role {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role
}

// UseElection puts this GRM under consensus management: role transitions are
// driven by the election node's OnLeader/OnFollower callbacks (wired to
// LeadAt/FollowAt by the caller) and replication batches become quorum-acked
// log entries. The GRM becomes a follower until the election says otherwise —
// the bootstrap member included, so that its LeadAt(1) installs the quorum
// stream instead of finding itself already primary of term 1. Call before the
// election node starts, on every replica of the set.
func (g *GRM) UseElection(en *election.Node) {
	g.mu.Lock()
	g.elect = en
	g.role = RoleFollower
	g.mu.Unlock()
}

// Election returns the consensus node managing this GRM (nil when unmanaged).
func (g *GRM) Election() *election.Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.elect
}

// LeadAt is the OnLeader transition: the replica becomes the active primary
// at the given term, adopts the term as its fencing epoch, primes a
// quorum-replicating stream with a full state snapshot (so followers that
// joined late converge) and starts the scheduler. Idempotent per term.
func (g *GRM) LeadAt(term int) {
	now := g.clock.Now()
	g.mu.Lock()
	if g.stopped || (g.role == RolePrimary && g.epoch >= term) {
		g.mu.Unlock()
		return
	}
	wasFollower := g.role == RoleFollower
	g.role = RolePrimary
	if term > g.epoch {
		g.epoch = term
	}
	if wasFollower {
		g.stats.Promotions++
		// Grace period: a follower's liveness view dates from the old
		// leader's last batch, so without a reset the first detector pass
		// would evict every node before its LRM re-registers. Genuinely dead
		// nodes still time out, measured from now.
		for _, lv := range g.nodes {
			lv.lastSeen = now
		}
	}
	elect := g.elect
	g.mu.Unlock()

	if elect != nil {
		repl := newReplicator(g, g.replEvery, func(data []byte) error {
			_, _, err := elect.Propose(data)
			return err
		})
		g.mu.Lock()
		old := g.repl
		g.repl = repl
		for _, id := range sortedNodeIDsLocked(g.nodes) {
			if lv := g.nodes[id]; lv.updates > 0 {
				repl.enqueueNode(lv.status)
			}
		}
		for _, id := range sortedAppIDsLocked(g.apps) {
			repl.enqueueApp(buildAppRecordLocked(g.apps[id]))
		}
		repl.setSeq(g.seq)
		g.mu.Unlock()
		if old != nil {
			old.stop()
		}
		repl.start()
	}
	g.Start()
}

// FollowAt is the OnFollower transition: the replica (possibly a deposed
// leader) becomes a follower, adopts the term as its fencing floor and tears
// down any outbound replication stream. The scheduler timer keeps ticking but
// SchedulePending no-ops while not primary, so a stale timer on a deposed
// leader places nothing.
func (g *GRM) FollowAt(term int) {
	g.mu.Lock()
	if term > g.epoch {
		g.epoch = term
	}
	g.role = RoleFollower
	repl := g.repl
	g.repl = nil
	g.mu.Unlock()
	if repl != nil {
		repl.stop()
	}
}

// ApplyReplicaEntry is the election Apply callback: one quorum-committed log
// entry, carrying an encoded replicaBatch. A corrupt entry from a buggy or
// hostile peer is counted and dropped, never a panic. The leader proposed the
// batch itself, so only a follower of the same cluster mirrors the state.
func (g *GRM) ApplyReplicaEntry(index, term int, data []byte) {
	b, err := decodeReplicaBatch(orb.NewDecoder(data))
	if err != nil {
		g.mu.Lock()
		g.stats.ReplicaDecodeFailures++
		g.mu.Unlock()
		g.log.Debug("replica log entry undecodable", "index", index, "term", term, "err", err)
		return
	}
	g.mu.Lock()
	g.stats.QuorumBatches++
	if g.role != RoleFollower || g.stopped || b.ClusterID != g.clusterID {
		g.mu.Unlock()
		return
	}
	g.stats.ReplicaBatches++
	if b.Seq > g.seq {
		g.seq = b.Seq
	}
	for _, rec := range b.Apps {
		g.apps[rec.ID] = appFromRecord(rec)
	}
	if b.Sched != nil {
		// Rebuild the admission queue after the apps above, so every queued
		// ID resolves; unknown IDs (app record lost to coalescing) are
		// dropped — SchedulePending re-covers them from g.apps anyway.
		g.admitQ = g.admitQ[:0]
		for _, id := range b.Sched.QueuedIDs {
			if app, ok := g.apps[id]; ok {
				g.admitQ = append(g.admitQ, app)
			}
		}
		g.stats.AdmissionQueued = b.Sched.Accepted
		g.stats.AdmissionRejected = b.Sched.Rejected
		g.stats.AdmissionPeakDepth = b.Sched.Peak
		g.stats.SchedulerBatches = b.Sched.Batches
		g.stats.MaxBatchSize = b.Sched.MaxBatch
		g.stats.AdmissionQueueDepth = len(g.admitQ)
	}
	for _, gone := range b.NodesGone {
		delete(g.nodes, gone.NodeID)
	}
	g.mu.Unlock()

	for i := range b.Nodes {
		g.applyReplicaStatus(&b.Nodes[i])
	}
	for _, gone := range b.NodesGone {
		g.trader.WithdrawRef(NodeStatusType, gone.Ref)
	}
}

// applyReplicaStatus mirrors one node's status into a follower's liveness
// table and trader without touching the leader-side update counters.
func (g *GRM) applyReplicaStatus(s *protocol.NodeStatus) {
	now := g.clock.Now()
	g.mu.Lock()
	g.touchLivenessLocked(s, now)
	epoch := g.epoch
	g.mu.Unlock()
	g.exportStatusOffer(s, now, epoch)
}

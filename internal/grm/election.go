package grm

import (
	"integrade/internal/election"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/trading"
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
	// committed log entries, refuses client writes with a forward to the
	// leader and schedules nothing until the election makes it leader.
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

// refusalLocked is the one answer to "may this GRM accept a client write?":
// nil when it may. A replica that does not lead its set refuses with a
// forward to the leader's GRM, or naming none while its election knows no
// other member as leader; a leader without a quorum (election.Node.HasQuorum)
// refuses naming none, since it may already be deposed and its writes could
// never commit. The caller holds g.mu; the election's lock nests inside it.
func (g *GRM) refusalLocked() error {
	switch {
	case g.elect == nil:
		return nil
	case g.role == RolePrimary && g.elect.HasQuorum():
		return nil
	case g.role == RolePrimary:
		return orb.Errorf(orb.CodeApplication, "grm: leader of epoch %d has no quorum", g.epoch)
	}
	id, ref := g.elect.Leader()
	if ref.IsZero() {
		return orb.Errorf(orb.CodeApplication, "grm: not the leader (leader=%q)", id)
	}
	ref.Key = protocol.GRMKey
	return orb.Errorf(orb.CodeForward, "%s", ref)
}

// refusal is refusalLocked under g.mu.
func (g *GRM) refusal() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refusalLocked()
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
	g.epoch = max(g.epoch, term)
	if wasFollower {
		g.stats.Promotions++
		// Grace period: a follower's liveness view dates from the old
		// leader's last batch, so without a reset the first detector pass
		// would evict every node before its LRM re-registers. Genuinely dead
		// nodes still time out, measured from now.
		g.graceLocked(now)
	}
	elect := g.elect
	g.mu.Unlock()

	if elect != nil {
		repl := newReplicator(g, func(data []byte) error {
			_, _, err := elect.Propose(data)
			return err
		})
		g.mu.Lock()
		old := g.repl
		g.repl = repl
		for id := range g.nodes {
			repl.mark(entity{entityNode, id})
		}
		for id := range g.apps {
			repl.mark(entity{entityApp, id})
		}
		repl.mark(queueEntity)
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
	g.epoch = max(g.epoch, term)
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
	g.seq = max(g.seq, b.Seq)
	// Apps before the queue, so that every queued ID resolves.
	for _, app := range b.Apps {
		g.putAppLocked(app)
	}
	if b.Queue != nil {
		g.replaceQueueLocked(*b.Queue)
	}
	now := g.clock.Now()
	type export struct {
		s     *protocol.NodeStatus
		place trading.Place
	}
	var exports []export
	var withdraws []trading.Place
	for _, n := range b.Nodes {
		s, place, withdraw := g.mirrorNodeLocked(n, now)
		if s != nil {
			exports = append(exports, export{s, place})
		}
		withdraws = append(withdraws, withdraw)
	}
	epoch := g.epoch
	g.mu.Unlock()

	for _, e := range exports {
		g.exportStatusOffer(e.s, coveringWindow(e.s.Windows, now), now, epoch, e.place)
	}
	for _, place := range withdraws {
		g.trader.Withdraw(place)
	}
}

package grm

import (
	"cmp"
	"slices"

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
// log entries. self is this GRM's own reference, the one LRMs report to: a
// new leader gives it to the LRMs it calls (LeadAt). The GRM becomes a
// follower until the election says otherwise — the bootstrap member included,
// so that its LeadAt(1) installs the quorum stream instead of finding itself
// already primary of term 1. Call before the election node starts, on every
// replica of the set.
func (g *GRM) UseElection(en *election.Node, self orb.ObjectRef) {
	g.mu.Lock()
	g.elect = en
	g.self = self
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
// at the given term, adopts the term as its fencing epoch, opens a
// quorum-replicating stream, whose first flush proposes only what an earlier
// term of its own left uncommitted (the pending set), and starts the
// scheduler. It calls the LRMs its running tasks are on to register with it
// (protocol.Adopt), each once, in reference order, from a zero-delay timer:
// after g.mu is released and, in the daemons, off the election's goroutine,
// where a hung LRM would stall the new leader's heartbeats. A failed call is
// only logged, since the LRM's update loop re-registers and finds it too;
// every other node registers with its next update. Idempotent per term.
func (g *GRM) LeadAt(term int) {
	now := g.clock.Now()
	g.mu.Lock()
	if g.stopped || (g.role == RolePrimary && g.epoch >= term) {
		g.mu.Unlock()
		return
	}
	if g.role == RoleFollower {
		g.stats.Promotions++
		g.graceLocked(now)
	}
	g.role = RolePrimary
	g.epoch = max(g.epoch, term)
	if elect := g.elect; elect != nil {
		if g.repl != nil {
			g.repl.stopLocked()
		}
		g.repl = newReplicator(g, func(data []byte) error {
			_, _, err := elect.Propose(data)
			return err
		})
		g.repl.armLocked()
		var lrms []orb.ObjectRef
		for _, app := range g.apps {
			for _, t := range app.tasks {
				if t.state == protocol.TaskRunning {
					lrms = append(lrms, t.lrm)
				}
			}
		}
		slices.SortFunc(lrms, func(a, b orb.ObjectRef) int {
			return cmp.Or(cmp.Compare(a.Endpoint.Net, b.Endpoint.Net),
				cmp.Compare(a.Endpoint.Addr, b.Endpoint.Addr), cmp.Compare(a.Key, b.Key))
		})
		lrms = slices.Compact(lrms)
		req := protocol.AdoptRequest{Epoch: g.epoch, GRM: g.self}
		g.adopt.Set(g.clock.AfterFunc(0, func() {
			for _, ref := range lrms {
				if g.Role() != RolePrimary || g.Epoch() != req.Epoch {
					return
				}
				if _, err := protocol.Adopt.Invoke(g.inv, ref, req); err != nil {
					g.log.Debug("adopt call failed", "lrm", ref, "err", err)
				}
			}
		}))
	}
	g.mu.Unlock()
	g.Start()
}

// FollowAt is the OnFollower transition: the replica (possibly a deposed
// leader) becomes a follower, adopts the term as its fencing floor and tears
// down any outbound replication stream; the pending set stays, for its next
// term. The scheduler timer keeps ticking but SchedulePending no-ops while
// not primary, so a stale timer on a deposed leader places nothing. A
// follower exports no offer; a deposed leader's age out at their TTL.
func (g *GRM) FollowAt(term int) {
	g.mu.Lock()
	g.epoch = max(g.epoch, term)
	g.role = RoleFollower
	if g.repl != nil {
		g.repl.stopLocked()
		g.repl = nil
	}
	g.mu.Unlock()
}

// ApplyReplicaEntry is the election Apply callback: one quorum-committed log
// entry, carrying an encoded replicaBatch. A corrupt entry from a buggy or
// hostile peer is counted and dropped, never a panic. The leader proposed the
// batch itself, so only a follower of the same cluster applies it; a record
// it applies supersedes this member's own uncommitted change, whose mark goes.
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
	defer g.mu.Unlock()
	g.stats.QuorumBatches++
	if g.role != RoleFollower || g.stopped || b.ClusterID != g.clusterID {
		return
	}
	g.stats.ReplicaBatches++
	for _, app := range b.Apps {
		g.putAppLocked(app)
		delete(g.pending, entity{entityApp, app.id})
	}
	for _, n := range b.Nodes {
		g.memberLocked(n)
		delete(g.pending, entity{entityNode, n.id})
	}
}

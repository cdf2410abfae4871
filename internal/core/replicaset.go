package core

import (
	"sort"

	"integrade/internal/election"
	"integrade/internal/orb"
)

// sourceInvoker is the invoker managers and their consensus nodes send
// through: it stamps the sending endpoint onto every call so the chaos
// engine can enforce one-way partitions sender-side (the interceptor only
// sees targets). Chaos is consulted dynamically — a manager built before
// EnableChaos still honours partitions scheduled afterwards.
type sourceInvoker struct {
	g      *Grid
	source string
}

// Invoke implements orb.Invoker.
func (i *sourceInvoker) Invoke(ref orb.ObjectRef, op string, arg []byte) ([]byte, error) {
	if e := i.g.Chaos(); e != nil {
		if err := e.CheckSend(i.source, ref.Endpoint, ref.Key, op); err != nil {
			return nil, err
		}
	}
	return i.g.orb.Invoke(ref, op, arg)
}

// WithReplicaSet runs the cluster's management plane as a replica set of
// the given number of members, at least two, born with the cluster: every
// member is built fresh before any node registers, and the first, the
// cluster's first active manager, bootstraps term 1 over an empty state.
// Replication batches become quorum-acknowledged log entries, and every
// outbound manager write carries the leader's term as its fencing epoch. When
// the leader dies or is partitioned from a quorum, the survivors elect a
// successor, which the others forward client writes to, and the grid swaps it
// in as the cluster's active manager (hierarchy links).
func WithReplicaSet(members int) ClusterOption {
	return func(c *clusterConfig) { c.members = members }
}

// startReplicaSet puts the replica set's members under consensus and starts
// their election nodes, the followers first, so that the first member's
// bootstrap round finds every election servant registered and listening. It
// runs before any node registers, outside g.mu: the bootstrap round calls
// through the chaos engine, which takes it.
func (c *Cluster) startReplicaSet() error {
	g := c.grid
	peers := make(map[string]orb.ObjectRef, len(c.replicas))
	for _, m := range c.replicas {
		peers[m.ep] = orb.ObjectRef{Endpoint: m.grmRef.Endpoint, Key: election.ObjectKey}
	}
	nodes := make([]*election.Node, 0, len(c.replicas))
	for i, m := range c.replicas {
		en := election.NewNode(election.Config{
			ID:         m.ep,
			Peers:      peers,
			Clock:      g.clock,
			RNG:        g.rng.Fork("elect-" + m.ep),
			Inv:        &sourceInvoker{g: g, source: m.ep},
			Apply:      m.grm.ApplyReplicaEntry,
			OnLeader:   func(term int) { m.grm.LeadAt(term); c.adoptLeader(m) },
			OnFollower: func(term int, leader string) { m.grm.FollowAt(term) },
			Bootstrap:  i == 0,
			Logger:     g.log,
		})
		m.elect = en
		m.grm.UseElection(en, m.grmRef)
		if err := m.adapter.Register(election.ObjectKey, en.Servant()); err != nil {
			return err
		}
		nodes = append(nodes, en)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i].Start()
	}
	return nil
}

// ReplicaEndpoints returns the replica set's loopback endpoint names, sorted —
// the addresses chaos partitions operate on.
func (c *Cluster) ReplicaEndpoints() []string {
	eps := make([]string, 0, len(c.replicas))
	for _, m := range c.replicas {
		eps = append(eps, m.ep)
	}
	sort.Strings(eps)
	return eps
}

// adoptLeader swaps a newly elected replica in as the cluster's active
// manager and re-parents the hierarchy links at it; LRMs find it through the
// followers' forwards. The deposed leader is left running — it is a live
// follower now, fenced by its stale epoch, not a corpse to tear down.
func (c *Cluster) adoptLeader(m *manager) {
	c.mgmtMu.Lock()
	if c.mgr == m {
		c.mgmtMu.Unlock()
		return
	}
	c.mgr = m
	c.mgmtMu.Unlock()
	c.grid.rebindManager(c, m)
	c.grid.log.Info("consensus leader adopted", "cluster", c.id, "endpoint", m.ep)
}

package core

import (
	"fmt"
	"sort"

	"integrade/internal/election"
	"integrade/internal/grm"
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

// EnableReplicaSet puts the cluster's management plane under consensus: the
// existing manager plus extra fresh incarnations form a replica set with an
// elected leader. Every member starts as a follower and the incumbent
// bootstraps term 1; replication batches become quorum-acknowledged log
// entries, and every outbound manager write carries the leader's term as its
// fencing epoch. When the leader dies or is partitioned from a quorum, the
// survivors elect a successor and the grid swaps it in as the cluster's
// active manager (Naming rebind, hierarchy re-parenting).
func (c *Cluster) EnableReplicaSet(extra int) error {
	if extra < 1 {
		return fmt.Errorf("core: replica set needs at least one extra member, got %d", extra)
	}
	g := c.grid
	c.mgmtMu.Lock()
	if len(c.replicas) > 0 {
		c.mgmtMu.Unlock()
		return fmt.Errorf("core: cluster %q already runs a replica set", c.id)
	}
	incumbent := c.mgr
	gen := c.gen
	c.gen += extra
	c.mgmtMu.Unlock()

	members := []*manager{incumbent}
	for i := 1; i <= extra; i++ {
		m, err := c.buildManager(gen + i)
		if err != nil {
			return err
		}
		members = append(members, m)
	}

	peers := make(map[string]orb.ObjectRef, len(members))
	for _, m := range members {
		peers[m.ep] = orb.ObjectRef{Endpoint: m.grmRef.Endpoint, Key: election.ObjectKey}
	}

	nodes := make([]*election.Node, 0, len(members))
	for i, m := range members {
		m := m
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
		m.grm.UseElection(en)
		if err := m.adapter.Register(election.ObjectKey, en.Servant()); err != nil {
			return err
		}
		nodes = append(nodes, en)
	}

	c.mgmtMu.Lock()
	c.replicas = members
	c.mgmtMu.Unlock()

	// Followers first, so the incumbent's bootstrap round finds every
	// election servant registered and listening.
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i].Start()
	}
	return nil
}

// Replicas returns the GRMs of the cluster's consensus replica set in member
// order (the incumbent first), or nil when no replica set is armed.
func (c *Cluster) Replicas() []*grm.GRM {
	c.mgmtMu.Lock()
	defer c.mgmtMu.Unlock()
	out := make([]*grm.GRM, 0, len(c.replicas))
	for _, m := range c.replicas {
		out = append(out, m.grm)
	}
	return out
}

// ReplicaEndpoints returns the replica set's loopback endpoint names, sorted —
// the addresses chaos partitions operate on.
func (c *Cluster) ReplicaEndpoints() []string {
	c.mgmtMu.Lock()
	defer c.mgmtMu.Unlock()
	eps := make([]string, 0, len(c.replicas))
	for _, m := range c.replicas {
		eps = append(eps, m.ep)
	}
	sort.Strings(eps)
	return eps
}

// replicaRefs returns the replica set's GRM references sorted by endpoint,
// for the LRM resolver rotation.
func (c *Cluster) replicaRefs() []orb.ObjectRef {
	c.mgmtMu.Lock()
	defer c.mgmtMu.Unlock()
	ms := append([]*manager(nil), c.replicas...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ep < ms[j].ep })
	refs := make([]orb.ObjectRef, 0, len(ms))
	for _, m := range ms {
		refs = append(refs, m.grmRef)
	}
	return refs
}

// adoptLeader swaps a newly elected replica in as the cluster's active
// manager and re-points the shared directory state at it. The deposed leader
// is left running — it is a live follower now, fenced by its stale epoch, not
// a corpse to tear down.
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

package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"integrade/internal/bsp"
	"integrade/internal/election"
	"integrade/internal/grm"
	"integrade/internal/hierarchy"
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// ErrManagerLost is the abort cause handed to in-flight BSP runtimes when
// their cluster's manager is torn down and rebuilt from cold: the placement
// the run holds no longer exists anywhere, so RunBSP must re-acquire a gang
// before resuming from the last checkpoint.
var ErrManagerLost = errors.New("core: cluster manager lost")

// manager is one incarnation of a cluster's management plane: the GRM (with
// its embedded trader) and the hierarchy node, both served from one loopback
// endpoint. Failover swaps the whole incarnation at once.
type manager struct {
	grm     *grm.GRM
	hnode   *hierarchy.Node
	ep      string // loopback endpoint name (also the chaos-isolation addr)
	adapter *orb.Adapter
	grmRef  orb.ObjectRef
	href    orb.ObjectRef
	// elect is this incarnation's consensus node when the cluster runs a
	// replica set (nil otherwise).
	elect *election.Node
}

// grmName is a cluster manager's well-known Naming path.
func grmName(clusterID string) string { return "clusters/" + clusterID + "/grm" }

// buildManager constructs (but does not start) a manager incarnation on its
// own endpoint. Generation 0 is the cluster's first manager; the other
// members of its replica set, or its cold rebuilds, get suffixed endpoints
// and their own RNG streams, so a failover never replays the dead
// incarnation's randomness.
func (c *Cluster) buildManager(gen int) (*manager, error) {
	g := c.grid
	ep, rngName := "mgr-"+c.id, "grm-"+c.id
	if gen > 0 {
		ep = fmt.Sprintf("mgr-%s-g%d", c.id, gen)
		rngName = fmt.Sprintf("grm-%s-g%d", c.id, gen)
	}
	m := &manager{ep: ep}
	// The manager's outbound traffic — placements, cancels, election and log
	// traffic — is source-stamped so chaos one-way partitions can sever, say,
	// just a leader's consensus links while the data plane stays up (the
	// split-brain cases in bench E13 and the consensus suite).
	m.grm = grm.New(c.id, g.clock, &sourceInvoker{g: g, source: ep}, append([]grm.Option{
		grm.WithRNG(g.rng.Fork(rngName)),
		grm.WithLogger(g.log),
		grm.WithEvictionObserver(g.abortBSP),
	}, c.grmOpts...)...)
	m.hnode = hierarchy.NewNode(m.grm, g.orb)

	adapter := orb.NewAdapter()
	m.adapter = adapter
	if err := adapter.Register(protocol.GRMKey, m.grm.Servant()); err != nil {
		return nil, err
	}
	if err := adapter.Register(hierarchy.ObjectKey, m.hnode.Servant()); err != nil {
		return nil, err
	}
	bound, err := g.orb.BindLoopback(ep, adapter)
	if err != nil {
		return nil, err
	}
	m.grmRef = orb.ObjectRef{Endpoint: bound, Key: protocol.GRMKey}
	m.href = orb.ObjectRef{Endpoint: bound, Key: hierarchy.ObjectKey}
	m.hnode.SetSelfRef(m.href)
	return m, nil
}

// ManagerEndpoint returns the active manager's loopback endpoint name — the
// address chaos partitions and directional rules operate on.
func (c *Cluster) ManagerEndpoint() string {
	c.mgmtMu.Lock()
	defer c.mgmtMu.Unlock()
	return c.mgr.ep
}

// CrashGRM kills a cluster's active manager with no warning: its timers
// stop, its endpoint disappears, and every call to it — LRM updates, status
// queries, election traffic — fails with a transport error. Recovery is up
// to the election (when a replica set is armed) or to RestartGRM, and to the
// LRMs re-registering through their update loops. The chaos hook for experiment E13 and the
// failover tests.
func (g *Grid) CrashGRM(clusterID string) error {
	c, ok := g.Cluster(clusterID)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterID)
	}
	mgr := c.manager()
	if mgr.elect != nil {
		mgr.elect.Stop()
	}
	mgr.grm.Stop()
	g.orb.Loopback().Unbind(mgr.ep)
	if e := g.Chaos(); e != nil {
		e.Isolate(mgr.ep)
	}
	g.log.Info("GRM crashed", "cluster", c.id, "endpoint", mgr.ep)
	return nil
}

// RestartGRM rebuilds a cluster's manager from cold: a fresh, empty GRM on a
// new endpoint. No state carries over — the cluster re-heals entirely from
// LRM re-registration (which re-exports the trader offers) and from the
// reconcile exchange that reaps the dead manager's orphaned placements.
// In-flight BSP runs that held placements under the old manager are aborted
// with ErrManagerLost so they re-acquire under the new one.
//
// The rebuilt manager leads term 1, like every GRM outside a replica set, so
// it is the recovery for a cluster without one: the LRMs of a replica set
// have fenced at the elected term, which a cold manager cannot know. A
// replica set recovers through its election instead, and RestartGRM refuses
// it.
func (g *Grid) RestartGRM(clusterID string) error {
	c, ok := g.Cluster(clusterID)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", clusterID)
	}
	if len(c.replicas) > 0 {
		return fmt.Errorf("core: cluster %q runs a replica set; its election replaces a lost leader", clusterID)
	}
	c.mgmtMu.Lock()
	c.gen++
	gen := c.gen
	c.mgmtMu.Unlock()

	m, err := c.buildManager(gen)
	if err != nil {
		return err
	}
	m.grm.Start()

	c.mgmtMu.Lock()
	old := c.mgr
	c.mgr = m
	c.mgmtMu.Unlock()

	old.grm.Stop()
	g.orb.Loopback().Unbind(old.ep)
	// A cold incarnation lives on a new endpoint: LRMs find it through Naming.
	_ = g.naming.Rebind(grmName(c.id), m.grmRef)
	g.rebindManager(c, m)
	g.abortClusterRuns(clusterID)
	g.log.Info("GRM rebuilt from cold", "cluster", clusterID, "endpoint", m.ep)
	return nil
}

// rebindManager points the hierarchy links at a cluster's new manager
// incarnation: the new node inherits the recorded topology, and each
// neighbour's link is re-pointed at the new reference.
func (g *Grid) rebindManager(c *Cluster, m *manager) {
	g.mu.Lock()
	links := make(map[string]string, len(g.links))
	for child, parent := range g.links {
		links[child] = parent
	}
	clusters := make(map[string]*Cluster, len(g.clusters))
	for id, cl := range g.clusters {
		clusters[id] = cl
	}
	g.mu.Unlock()

	if parentID, ok := links[c.id]; ok {
		if parent := clusters[parentID]; parent != nil {
			pm := parent.manager()
			m.hnode.SetParent(pm.href)
			pm.hnode.AddChild(c.id, m.href)
		}
	}
	children := make([]string, 0, len(links))
	for child, parent := range links {
		if parent == c.id {
			children = append(children, child)
		}
	}
	sort.Strings(children)
	for _, childID := range children {
		if ch := clusters[childID]; ch != nil {
			cm := ch.manager()
			m.hnode.AddChild(childID, cm.href)
			cm.hnode.SetParent(m.href)
		}
	}
}

// abortClusterRuns aborts every in-flight BSP runtime whose placement lived
// under the named cluster's (now destroyed) manager.
func (g *Grid) abortClusterRuns(clusterID string) {
	prefix := clusterID + "-app-"
	g.bspMu.Lock()
	ids := make([]string, 0, len(g.bspRuns))
	for appID := range g.bspRuns {
		if strings.HasPrefix(appID, prefix) {
			ids = append(ids, appID)
		}
	}
	sort.Strings(ids)
	victims := make([]*bsp.Runtime, 0, len(ids))
	for _, appID := range ids {
		if rt := g.bspRuns[appID]; rt != nil {
			victims = append(victims, rt)
		}
	}
	g.bspMu.Unlock()
	for _, rt := range victims {
		rt.Abort(ErrManagerLost)
	}
}

// Package core is InteGrade's public facade: it assembles the ORB, GRM,
// LRMs, LUPA, NCC policies, hierarchy and checkpoint store into a
// running grid, exposing the API the examples, CLI tools and benchmarks
// use.
//
// A Grid can run on the deterministic virtual clock (simulated deployments:
// tests, benchmarks, examples) or the wall clock with real TCP transports
// (the cmd/ servers use the underlying packages directly).
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"integrade/internal/asct"
	"integrade/internal/bsp"
	"integrade/internal/chaos"
	"integrade/internal/checkpoint"
	"integrade/internal/grm"
	"integrade/internal/hierarchy"
	"integrade/internal/lrm"
	"integrade/internal/naming"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

// DefaultPlatform is the platform simulated nodes advertise.
var DefaultPlatform = resource.Platform{Arch: "amd64", OS: "linux"}

// Grid is a running InteGrade deployment.
type Grid struct {
	clock  sim.Clock
	vclock *sim.VirtualClock // nil when running on the wall clock
	orb    *orb.ORB
	rng    *sim.RNG
	log    *slog.Logger
	store  *checkpoint.Store
	// naming is the grid's name directory: every cluster manager is bound
	// under "clusters/<id>/grm", and the LRMs of a cluster without a replica
	// set re-resolve through it after their GRM dies (the self-healing path).
	naming    *naming.Service
	namingRef orb.ObjectRef
	// mu guards clusters, order, links, stopped and chaos. CreateCluster
	// builds and registers the whole manager stack while holding it, so g.mu
	// nests outside the per-cluster locks and every subsystem lock that
	// manager construction touches: servant registration (orb.OpMux,
	// orb.Adapter), GRM startup, the name directory and the hierarchy node.
	// Stop and teardown deliberately run outside g.mu.
	//lint:lockorder core.Grid.mu<core.Cluster.mgmtMu
	//lint:lockorder core.Grid.mu<core.Cluster.mu
	//lint:lockorder core.Grid.mu<grm.GRM.mu
	//lint:lockorder core.Grid.mu<hierarchy.Node.mu
	//lint:lockorder core.Grid.mu<naming.Service.mu
	//lint:lockorder core.Grid.mu<orb.Adapter.mu
	//lint:lockorder core.Grid.mu<orb.OpMux.mu
	mu       sync.Mutex
	clusters map[string]*Cluster
	order    []string
	// links records the hierarchy topology (child cluster ID -> parent
	// cluster ID) so an elected or rebuilt manager can be re-parented.
	links   map[string]string
	stopped bool
	chaos   *chaos.Engine

	// bspMu guards bspRuns: the in-flight BSP runtime per application,
	// registered by RunBSP so the failure detector can abort a gang whose
	// node died.
	bspMu   sync.Mutex
	bspRuns map[string]*bsp.Runtime
}

// Option configures a Grid.
type Option func(*Grid)

// withClock installs a clock; pass a *sim.VirtualClock for simulation
// (default) or sim.RealClock{} for wall-clock runs.
func withClock(c sim.Clock) Option {
	return func(g *Grid) {
		g.clock = c
		g.vclock, _ = c.(*sim.VirtualClock)
	}
}

// WithSeed seeds all grid randomness (default 1).
func WithSeed(seed int64) Option {
	return func(g *Grid) { g.rng = sim.NewRNG(seed) }
}

// NewGrid returns an empty grid on a fresh virtual clock unless overridden.
func NewGrid(opts ...Option) *Grid {
	vc := sim.NewVirtualClock()
	g := &Grid{
		clock:    vc,
		vclock:   vc,
		orb:      orb.New(),
		rng:      sim.NewRNG(1),
		log:      slog.New(slog.DiscardHandler),
		naming:   naming.NewService(),
		clusters: make(map[string]*Cluster),
		links:    make(map[string]string),
		bspRuns:  make(map[string]*bsp.Runtime),
	}
	for _, opt := range opts {
		opt(g)
	}
	g.store = checkpoint.NewStore(g.clock.Now)
	adapter := orb.NewAdapter()
	// A fresh ORB cannot already hold these names; errors are impossible.
	_ = adapter.Register(naming.ObjectKey, naming.Servant(g.naming))
	ep, _ := g.orb.BindLoopback("naming", adapter)
	g.namingRef = orb.ObjectRef{Endpoint: ep, Key: naming.ObjectKey}
	return g
}

// Advance moves simulated time forward by d, executing all scheduled
// protocol activity. It is an error on a wall-clock grid.
func (g *Grid) Advance(d time.Duration) error {
	if g.vclock == nil {
		return errors.New("core: Advance requires a virtual clock")
	}
	g.vclock.Advance(d)
	return nil
}

// Now returns the current grid time.
func (g *Grid) Now() time.Time { return g.clock.Now() }

// Stop shuts down every cluster's background loops. The teardown itself
// runs outside g.mu: cluster stop and ORB close both wait on other locks
// (and the ORB close on in-flight work), so holding the grid lock across
// them would pin every accessor for the whole teardown. A second concurrent
// Stop returns as soon as the first has claimed the teardown.
func (g *Grid) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	clusters := make([]*Cluster, 0, len(g.clusters))
	for _, id := range g.order {
		clusters = append(clusters, g.clusters[id])
	}
	g.mu.Unlock()
	for _, c := range clusters {
		c.stop()
	}
	g.orb.Close()
}

// Clusters returns the cluster IDs in creation order.
func (g *Grid) Clusters() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

// Cluster returns a cluster by ID.
func (g *Grid) Cluster(id string) (*Cluster, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.clusters[id]
	return c, ok
}

// root returns the first-created cluster.
func (g *Grid) root() (*Cluster, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.order) == 0 {
		return nil, errors.New("core: grid has no clusters")
	}
	return g.clusters[g.order[0]], nil
}

// Submit submits an application to the grid: it enters at the root
// cluster's hierarchy node and is routed to a capable cluster.
func (g *Grid) Submit(b *asct.Builder) (*Handle, error) {
	spec, err := b.Spec()
	if err != nil {
		return nil, err
	}
	root, err := g.root()
	if err != nil {
		return nil, err
	}
	res, err := root.Hierarchy().Submit(spec)
	if err != nil {
		return nil, err
	}
	target, ok := g.Cluster(res.ClusterID)
	if !ok {
		return nil, fmt.Errorf("core: routed to unknown cluster %q", res.ClusterID)
	}
	return &Handle{grid: g, cluster: target, appID: res.AppID, hops: res.Hops}, nil
}

// SubmitTo submits directly to one cluster, bypassing hierarchy routing.
func (g *Grid) SubmitTo(clusterID string, b *asct.Builder) (*Handle, error) {
	c, ok := g.Cluster(clusterID)
	if !ok {
		return nil, fmt.Errorf("core: unknown cluster %q", clusterID)
	}
	spec, err := b.Spec()
	if err != nil {
		return nil, err
	}
	appID, err := c.GRM().Submit(spec)
	if err != nil {
		return nil, err
	}
	return &Handle{grid: g, cluster: c, appID: appID}, nil
}

// Handle tracks a submitted application.
type Handle struct {
	grid    *Grid
	cluster *Cluster
	appID   string
	hops    int
}

// ID returns the application ID.
func (h *Handle) ID() string { return h.appID }

// ClusterID returns the cluster the application landed on.
func (h *Handle) ClusterID() string { return h.cluster.id }

// Hops returns the hierarchy hops the submission travelled.
func (h *Handle) Hops() int { return h.hops }

// Status fetches the application status from the cluster's active manager.
func (h *Handle) Status() (protocol.AppStatus, error) {
	return h.cluster.GRM().AppStatus(h.appID)
}

// Cancel aborts the application.
func (h *Handle) Cancel() error {
	return h.cluster.GRM().CancelApp(h.appID)
}

// waitSimulated advances virtual time in poll-sized steps until the
// application completes or maxSim elapses, returning the final status.
func (h *Handle) waitSimulated(maxSim, poll time.Duration) (protocol.AppStatus, error) {
	if h.grid.vclock == nil {
		return protocol.AppStatus{}, errors.New("core: waitSimulated requires a virtual clock")
	}
	if poll <= 0 {
		poll = time.Minute
	}
	deadline := h.grid.Now().Add(maxSim)
	for {
		st, err := h.Status()
		if err != nil {
			return protocol.AppStatus{}, err
		}
		if st.Done() {
			return st, nil
		}
		if !h.grid.Now().Before(deadline) {
			return st, fmt.Errorf("core: app %s incomplete after %v simulated", h.appID, maxSim)
		}
		h.grid.vclock.Advance(poll)
	}
}

// Cluster is one InteGrade cluster inside a Grid.
type Cluster struct {
	id   string
	grid *Grid

	updatePeriod time.Duration
	grmOpts      []grm.Option // retained for replica and cold-rebuild incarnations
	lrmOpts      []lrm.Option // applied to every LRM the cluster builds

	// replicas is the consensus replica set, in member order (empty when
	// none). It is fixed before the cluster is published.
	replicas []*manager

	// mgmtMu guards the swappable manager identity: the active manager
	// incarnation and the incarnation counter. Held only for field swaps,
	// never across RPCs.
	mgmtMu sync.Mutex
	mgr    *manager
	gen    int

	// mu guards nodes, lrms and seq. stop() halts the LRMs and FailNode
	// crashes a node (which releases its ledger reservations) under it, so
	// c.mu nests outside the LRM, node and ledger locks.
	//lint:lockorder core.Cluster.mu<lrm.LRM.mu
	//lint:lockorder core.Cluster.mu<node.Node.mu
	mu    sync.Mutex
	nodes []*node.Node
	lrms  []*lrm.LRM
	seq   int
}

// ClusterOption configures a cluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	grmOpts      []grm.Option
	lrmOpts      []lrm.Option
	updatePeriod time.Duration
	members      int // the replica set's size; 0: a lone manager
}

// WithGRMOptions forwards raw GRM options (tuning knobs the named cluster
// options do not cover).
func WithGRMOptions(opts ...grm.Option) ClusterOption {
	return func(c *clusterConfig) { c.grmOpts = append(c.grmOpts, opts...) }
}

// WithLRMOptions forwards raw LRM options to every node the cluster adds —
// e.g. lrm.WithDepartureDrain to enable graceful-departure drains on an
// intermittent fleet.
func WithLRMOptions(opts ...lrm.Option) ClusterOption {
	return func(c *clusterConfig) { c.lrmOpts = append(c.lrmOpts, opts...) }
}

// WithPolicy sets the cluster scheduling policy (default usage-aware).
func WithPolicy(p grm.Policy) ClusterOption {
	return func(c *clusterConfig) { c.grmOpts = append(c.grmOpts, grm.WithPolicy(p)) }
}

// WithBackbone sets the cluster's inter-LAN backbone bandwidth.
func WithBackbone(mbps float64) ClusterOption {
	return func(c *clusterConfig) { c.grmOpts = append(c.grmOpts, grm.WithBackbone(mbps)) }
}

// WithSchedulePeriod sets the GRM pending-queue scheduling period.
func WithSchedulePeriod(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.grmOpts = append(c.grmOpts, grm.WithSchedulePeriod(d)) }
}

// WithUpdatePeriod sets the cluster's LRM information-update cadence
// (default 30s).
func WithUpdatePeriod(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.updatePeriod = d }
}

// AddCluster creates a cluster and starts its manager components: one
// manager, or the members of the replica set WithReplicaSet declares.
func (g *Grid) AddCluster(id string, opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{updatePeriod: lrm.DefaultUpdatePeriod}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.members != 0 && cfg.members < 2 {
		return nil, fmt.Errorf("core: a replica set needs at least two members, got %d", cfg.members)
	}
	g.mu.Lock()
	if _, exists := g.clusters[id]; exists {
		g.mu.Unlock()
		return nil, fmt.Errorf("core: cluster %q already exists", id)
	}

	c := &Cluster{id: id, grid: g, updatePeriod: cfg.updatePeriod, grmOpts: cfg.grmOpts, lrmOpts: cfg.lrmOpts}
	m, err := c.buildManager(0)
	if err != nil {
		g.mu.Unlock()
		return nil, err
	}
	c.mgr = m
	m.grm.Start()
	_ = g.naming.Rebind(grmName(id), m.grmRef)
	if cfg.members > 0 {
		c.replicas = []*manager{m}
	}
	for i := 1; i < cfg.members; i++ {
		if m, err = c.buildManager(i); err != nil {
			g.mu.Unlock()
			return nil, err
		}
		c.replicas = append(c.replicas, m)
	}

	g.clusters[id] = c
	g.order = append(g.order, id)
	g.mu.Unlock()
	if err := c.startReplicaSet(); err != nil {
		return nil, err
	}
	return c, nil
}

// LinkChild places child under parent in the inter-cluster hierarchy. The
// link is recorded grid-side too, so a failed-over manager can be re-parented
// into the same topology.
func (g *Grid) LinkChild(parentID, childID string) error {
	parent, ok := g.Cluster(parentID)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", parentID)
	}
	child, ok := g.Cluster(childID)
	if !ok {
		return fmt.Errorf("core: unknown cluster %q", childID)
	}
	pm, cm := parent.manager(), child.manager()
	pm.hnode.AddChild(childID, cm.href)
	cm.hnode.SetParent(pm.href)
	g.mu.Lock()
	g.links[childID] = parentID
	g.mu.Unlock()
	return nil
}

// ID returns the cluster ID.
func (c *Cluster) ID() string { return c.id }

// manager returns the active manager incarnation.
func (c *Cluster) manager() *manager {
	c.mgmtMu.Lock()
	defer c.mgmtMu.Unlock()
	return c.mgr
}

// GRM exposes the cluster's active resource manager (stats, direct
// submission). After a failover this is the elected or rebuilt incarnation.
func (c *Cluster) GRM() *grm.GRM { return c.manager().grm }

// Hierarchy exposes the cluster's hierarchy node.
func (c *Cluster) Hierarchy() *hierarchy.Node { return c.manager().hnode }

func (c *Cluster) stop() {
	c.mgmtMu.Lock()
	members := append([]*manager{c.mgr}, c.replicas...)
	c.mgmtMu.Unlock()
	seen := make(map[*manager]bool, len(members))
	for _, m := range members {
		if m == nil || seen[m] {
			continue
		}
		seen[m] = true
		if m.elect != nil {
			m.elect.Stop()
		}
		m.grm.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.lrms {
		l.Stop()
	}
}

// NodeConfig describes a batch of nodes to add to a cluster.
type NodeConfig struct {
	Count int
	// MIPS is the nominal CPU speed; Jitter adds a uniform ±Jitter spread
	// for heterogeneous clusters.
	MIPS    float64
	Jitter  float64
	RAMMB   float64
	DiskMB  float64
	NetMbps float64
	LAN     string
	// Dedicated nodes have no owner and no LUPA.
	Dedicated bool
	// Usage selects the owner behaviour of desktop nodes.
	Usage *usage.Profile
	// Policy overrides the NCC policy (defaults: Generous for dedicated,
	// ncc.Default for desktops).
	Policy *ncc.Policy
}

// DesktopNodes returns a config for owner workstations with the given
// usage profile.
func DesktopNodes(count int, profile usage.Profile) NodeConfig {
	p := profile
	return NodeConfig{
		Count:   count,
		MIPS:    1000,
		Jitter:  200,
		RAMMB:   1024,
		DiskMB:  20480,
		NetMbps: 100,
		LAN:     "lan0",
		Usage:   &p,
	}
}

// DedicatedNodes returns a config for grid-reserved machines.
func DedicatedNodes(count int, mips float64) NodeConfig {
	return NodeConfig{
		Count:     count,
		MIPS:      mips,
		RAMMB:     2048,
		DiskMB:    40960,
		NetMbps:   100,
		LAN:       "lan0",
		Dedicated: true,
	}
}

// AddNodes creates the nodes, their LRMs, and primes the Information
// Update Protocol. It returns the created node IDs.
func (c *Cluster) AddNodes(cfg NodeConfig) ([]string, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("core: node count %d", cfg.Count)
	}
	g := c.grid
	rng := g.rng.Fork("nodes-" + c.id)
	var ids []string
	for i := 0; i < cfg.Count; i++ {
		c.mu.Lock()
		c.seq++
		id := fmt.Sprintf("%s/n%d", c.id, c.seq)
		c.mu.Unlock()

		mips := cfg.MIPS
		if cfg.Jitter > 0 {
			mips += (rng.Float64()*2 - 1) * cfg.Jitter
		}
		spec := resource.MachineSpec{
			Platform:  DefaultPlatform,
			Capacity:  resource.Vector{MIPS: mips, RAMMB: cfg.RAMMB, DiskMB: cfg.DiskMB, NetMbps: cfg.NetMbps},
			LANID:     cfg.LAN,
			Dedicated: cfg.Dedicated,
		}
		if spec.LANID == "" {
			spec.LANID = "lan0"
		}
		var trace *usage.Trace
		if !cfg.Dedicated && cfg.Usage != nil {
			trace = usage.NewTrace(*cfg.Usage, rng.Int63())
		}
		pol := ncc.Default()
		if cfg.Dedicated {
			pol = ncc.Generous()
		}
		if cfg.Policy != nil {
			pol = *cfg.Policy
		}
		n, err := node.New(id, spec, trace, pol, g.clock.Now())
		if err != nil {
			return nil, err
		}

		adapter := orb.NewAdapter()
		ep, err := g.orb.BindLoopback(id, adapter)
		if err != nil {
			return nil, err
		}
		selfRef := orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}
		// After repeated update failures the LRM re-registers: in a replica
		// set with the members in turn (one that does not lead forwards it),
		// otherwise with what Naming resolves (over the ORB, so the lookup is
		// subject to the same faults as any call).
		nclient := naming.NewClient(g.orb, g.namingRef)
		resolver := func(orb.ObjectRef) (orb.ObjectRef, error) { return nclient.Resolve(grmName(c.id)) }
		if len(c.replicas) > 0 {
			refs := make([]orb.ObjectRef, len(c.replicas))
			for i, m := range c.replicas {
				refs[i] = m.grmRef
			}
			resolver = lrm.Rotation(refs...)
		}
		lrmOpts := []lrm.Option{
			lrm.WithUpdatePeriod(c.updatePeriod),
			lrm.WithLogger(g.log),
			lrm.WithGRMResolver(resolver),
		}
		lrmOpts = append(lrmOpts, c.lrmOpts...)
		l := lrm.New(n, g.clock, g.orb, selfRef, c.manager().grmRef, lrmOpts...)
		if err := adapter.Register(protocol.LRMKey, l.Servant()); err != nil {
			return nil, err
		}
		l.Start()
		l.SendUpdate()

		c.mu.Lock()
		c.nodes = append(c.nodes, n)
		c.lrms = append(c.lrms, l)
		c.mu.Unlock()
		if engine := g.Chaos(); engine != nil {
			c.registerChaosNode(engine, id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node.Node(nil), c.nodes...)
}

// LRMs returns the cluster's local resource managers.
func (c *Cluster) LRMs() []*lrm.LRM {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*lrm.LRM(nil), c.lrms...)
}

// FailNode crashes the named node for the outage duration. Evicted-task
// notifications flow to the GRM on the node's next LRM sync.
func (c *Cluster) FailNode(nodeID string, outage time.Duration) error {
	c.mu.Lock()
	var mgr *lrm.LRM
	var evicted []*node.Task
	found := false
	for i, n := range c.nodes {
		if n.ID() == nodeID {
			evicted = n.Fail(c.grid.clock.Now(), outage)
			mgr = c.lrms[i]
			found = true
			break
		}
	}
	c.mu.Unlock()
	if !found {
		return fmt.Errorf("core: unknown node %q", nodeID)
	}
	// Fail drains the evicted tasks itself, so the LRM's periodic sync will
	// not see them; report them to the GRM directly. The notification is a
	// remote invocation, so it must run outside c.mu.
	for _, t := range evicted {
		mgr.NotifyEvicted(t)
	}
	return nil
}

// FailRandomNodes crashes k distinct running nodes for the outage duration.
func (c *Cluster) FailRandomNodes(k int, outage time.Duration) []string {
	nodes := c.Nodes()
	rng := c.grid.rng.Fork("fail-" + c.id)
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	var failed []string
	for _, n := range nodes {
		if len(failed) == k {
			break
		}
		if n.IsDown(c.grid.Now()) {
			continue
		}
		if err := c.FailNode(n.ID(), outage); err == nil {
			failed = append(failed, n.ID())
		}
	}
	sort.Strings(failed)
	return failed
}

// DeliveredWork sums delivered grid work (MI) across the cluster's nodes.
func (c *Cluster) DeliveredWork() float64 {
	var total float64
	for _, n := range c.Nodes() {
		total += n.DeliveredWork()
	}
	return total
}

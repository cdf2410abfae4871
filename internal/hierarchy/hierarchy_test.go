package hierarchy

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

var linux = resource.Platform{Arch: "amd64", OS: "linux"}

// testCluster is one cluster (GRM + nodes + hierarchy node) for tree tests.
type testCluster struct {
	id   string
	g    *grm.GRM
	h    *Node
	href orb.ObjectRef
}

// buildCluster creates a cluster with n dedicated nodes of the given MIPS.
func buildCluster(t *testing.T, clock *sim.VirtualClock, o *orb.ORB, id string, n int, mips float64) *testCluster {
	t.Helper()
	g := grm.New(id, clock, o, grm.WithSchedulePeriod(15*time.Second))
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		t.Fatal(err)
	}
	h := NewNode(g, o)
	if err := adapter.Register(ObjectKey, h.Servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("mgr-"+id, adapter)
	if err != nil {
		t.Fatal(err)
	}
	grmRef := orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}
	href := orb.ObjectRef{Endpoint: ep, Key: ObjectKey}
	h.SetSelfRef(href)
	g.Start()
	t.Cleanup(g.Stop)

	for i := 0; i < n; i++ {
		nodeID := fmt.Sprintf("%s-n%d", id, i)
		spec := resource.MachineSpec{
			Platform:  linux,
			Capacity:  resource.Vector{MIPS: mips, RAMMB: 1024, DiskMB: 1000, NetMbps: 100},
			LANID:     id + "-lan",
			Dedicated: true,
		}
		nd, err := node.New(nodeID, spec, nil, ncc.Generous(), clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		na := orb.NewAdapter()
		nep, err := o.BindLoopback(nodeID, na)
		if err != nil {
			t.Fatal(err)
		}
		selfRef := orb.ObjectRef{Endpoint: nep, Key: protocol.LRMKey}
		l := lrm.New(nd, clock, o, selfRef, grmRef, lrm.WithUpdatePeriod(15*time.Second))
		if err := na.Register(protocol.LRMKey, l.Servant()); err != nil {
			t.Fatal(err)
		}
		l.Start()
		t.Cleanup(l.Stop)
		l.SendUpdate()
	}
	return &testCluster{id: id, g: g, h: h, href: href}
}

// link makes child a child of parent.
func link(parent, child *testCluster) {
	parent.h.AddChild(child.id, child.href)
	child.h.SetParent(parent.href)
}

// buildTree creates root with two children and four grandchildren:
//
//	      root (2 nodes x 500)
//	     /    \
//	   east    west (each 2 x 500)
//	  /   \    /  \
//	e1    e2  w1   w2 (each 3 x 1000)
func buildTree(t *testing.T) (clock *sim.VirtualClock, root *testCluster, all map[string]*testCluster) {
	clock = sim.NewVirtualClock()
	o := orb.New()
	all = make(map[string]*testCluster)
	mk := func(id string, n int, mips float64) *testCluster {
		c := buildCluster(t, clock, o, id, n, mips)
		all[id] = c
		return c
	}
	root = mk("root", 2, 500)
	east := mk("east", 2, 500)
	west := mk("west", 2, 500)
	link(root, east)
	link(root, west)
	for _, leaf := range []struct {
		id     string
		parent *testCluster
	}{{"e1", east}, {"e2", east}, {"w1", west}, {"w2", west}} {
		c := mk(leaf.id, 3, 1000)
		link(leaf.parent, c)
	}
	return clock, root, all
}

func TestSubtreeSummaryAggregates(t *testing.T) {
	_, root, all := buildTree(t)
	sum := root.h.Summary()
	if sum.Clusters != 7 {
		t.Fatalf("Clusters = %d, want 7", sum.Clusters)
	}
	// 3 small clusters x2 nodes + 4 leaves x3 nodes = 18 nodes.
	if sum.Nodes != 18 {
		t.Fatalf("Nodes = %d, want 18", sum.Nodes)
	}
	wantMIPS := 3*2*500.0 + 4*3*1000.0
	if sum.TotalMIPS != wantMIPS {
		t.Fatalf("TotalMIPS = %v, want %v", sum.TotalMIPS, wantMIPS)
	}
	// A leaf's summary covers only itself.
	leaf := all["e1"].h.Summary()
	if leaf.Clusters != 1 || leaf.Nodes != 3 {
		t.Fatalf("leaf summary = %+v", leaf)
	}
}

func TestRouteRunsLocallyWhenPossible(t *testing.T) {
	_, root, _ := buildTree(t)
	res, err := root.h.Submit(protocol.ApplicationSpec{
		Name:        "small",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 1000,
		Alloc:       resource.Vector{MIPS: 400, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterID != "root" || res.Hops != 0 {
		t.Fatalf("res = %+v, want local placement", res)
	}
}

func TestRouteDescendsToCapableLeaf(t *testing.T) {
	_, root, _ := buildTree(t)
	// Needs 800-MIPS nodes: only the 1000-MIPS leaves qualify. From the
	// root that is two hops down.
	res, err := root.h.Submit(protocol.ApplicationSpec{
		Name:        "big",
		Kind:        protocol.AppBSP,
		NumTasks:    3,
		WorkPerTask: 1000,
		Alloc:       resource.Vector{MIPS: 800, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterID == "root" || res.ClusterID == "east" || res.ClusterID == "west" {
		t.Fatalf("placed on %s, want a leaf", res.ClusterID)
	}
	if res.Hops != 2 {
		t.Fatalf("hops = %d, want 2", res.Hops)
	}
}

func TestRouteClimbsFromLeaf(t *testing.T) {
	clock, _, all := buildTree(t)
	// Submit at leaf e1 something e1 cannot hold (4 procs x 800 MIPS = 3200
	// > e1 free 3000); e2/w1/w2 can't either... each leaf has 3x1000 nodes,
	// and a single proc needs 800, so 4 procs don't fit on 3 nodes (one
	// node can host only one 800-MIPS proc). The request must climb and
	// land... nowhere — total per-leaf is insufficient, so expect
	// ErrUnroutable. Use 3 procs at a *different* leaf by filling e1 first.
	leaf := all["e1"]
	// Fill e1 with a local 3-proc app.
	if _, err := leaf.h.Submit(protocol.ApplicationSpec{
		Name: "filler", Kind: protocol.AppBSP, NumTasks: 3, WorkPerTask: 1e12,
		Alloc: resource.Vector{MIPS: 900, RAMMB: 64},
	}); err != nil {
		t.Fatal(err)
	}
	// Let the Information Update Protocol propagate e1's new (full) state
	// into its trader before routing consults the summary.
	clock.Advance(30 * time.Second)
	// Now a 3-proc 800-MIPS app submitted at e1 must climb to east and
	// descend into e2 (or further), landing on another leaf.
	res, err := leaf.h.Submit(protocol.ApplicationSpec{
		Name: "climber", Kind: protocol.AppBSP, NumTasks: 3, WorkPerTask: 1000,
		Alloc: resource.Vector{MIPS: 800, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterID == "e1" {
		t.Fatal("climber placed on the full leaf")
	}
	if res.Hops < 2 {
		t.Fatalf("hops = %d, want >= 2 (climb + descend)", res.Hops)
	}
}

func TestRouteUnroutable(t *testing.T) {
	_, root, _ := buildTree(t)
	_, err := root.h.Submit(protocol.ApplicationSpec{
		Name: "impossible", Kind: protocol.AppSequential, NumTasks: 1,
		WorkPerTask: 1000,
		Alloc:       resource.Vector{MIPS: 1e9, RAMMB: 64},
	})
	if err == nil {
		t.Fatal("impossible app routed")
	}
}

func TestClientOverWire(t *testing.T) {
	clock := sim.NewVirtualClock()
	o := orb.New()
	c := buildCluster(t, clock, o, "solo", 2, 1000)
	client := NewClient(o, c.href)
	sum, err := client.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.ClusterID != "solo" || sum.Nodes != 2 {
		t.Fatalf("summary over wire = %+v", sum)
	}
	res, err := client.Submit(protocol.ApplicationSpec{
		Name: "wire", Kind: protocol.AppSequential, NumTasks: 1,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterID != "solo" {
		t.Fatalf("res = %+v", res)
	}
	st, err := c.g.AppStatus(res.AppID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tasks) != 1 {
		t.Fatalf("routed app missing tasks: %+v", st)
	}
}

func TestRoutedCounterAndErrors(t *testing.T) {
	_, root, all := buildTree(t)
	if _, err := root.h.Submit(protocol.ApplicationSpec{
		Name: "x", Kind: protocol.AppSequential, NumTasks: 1,
		WorkPerTask: 1000, Alloc: resource.Vector{MIPS: 100, RAMMB: 16},
	}); err != nil {
		t.Fatal(err)
	}
	if root.h.routedCount() != 1 {
		t.Fatalf("Routed = %d", root.h.routedCount())
	}
	_ = all
	if !errors.Is(fmt.Errorf("wrap: %w", ErrUnroutable), ErrUnroutable) {
		t.Fatal("ErrUnroutable not matchable")
	}
}

// Client routes submissions through a remote hierarchy node, as a caller in
// another domain would.
type Client struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// NewClient returns a stub for the hierarchy node at ref.
func NewClient(inv orb.Invoker, ref orb.ObjectRef) *Client {
	return &Client{inv: inv, ref: ref}
}

// Submit routes a submission via the remote node.
func (c *Client) Submit(spec protocol.ApplicationSpec) (RouteResult, error) {
	return routeRemote(c.inv, c.ref, spec, DefaultTTL, "")
}

// Summary queries the remote subtree aggregate.
func (c *Client) Summary() (Summary, error) {
	return querySummary(c.inv, c.ref)
}

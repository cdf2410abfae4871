// Package hierarchy implements InteGrade's inter-cluster organization:
// "Clusters are then arranged in a hierarchy, allowing a single InteGrade
// grid to encompass millions of machines."
//
// Each cluster manager hosts a hierarchy Node next to its GRM. Nodes form a
// tree; every node can compute the aggregate resource summary of its
// subtree and route application submissions: a request lands at some node,
// runs locally when the local cluster can hold it, otherwise descends into
// the most resourceful child subtree, otherwise climbs to the parent — the
// wide-area extension of the information/reservation protocols [MK02].
package hierarchy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// ObjectKey is the adapter key under which hierarchy nodes register.
const ObjectKey = "hierarchy"

// The two wire operations: a subtree's summary, and routing an application
// into the subtree.
var (
	summaryOp = &orb.Op[struct{}, Summary]{Name: "hsummary",
		EncodeRep: encodeSummary, DecodeRep: decodeSummary}
	routeOp = &orb.Op[routeRequest, RouteResult]{Name: "hroute",
		EncodeReq: routeRequest.encode, DecodeReq: decodeRouteRequest,
		EncodeRep: encodeRouteResult, DecodeRep: decodeRouteResult}
)

// routeRequest asks a node to route Spec with a hop budget of TTL, without
// descending into the child Exclude.
type routeRequest struct {
	Spec    protocol.ApplicationSpec
	TTL     int
	Exclude string
}

// ErrUnroutable indicates no cluster in the reachable hierarchy could
// accept the application.
var ErrUnroutable = errors.New("hierarchy: no cluster can host the application")

// DefaultTTL bounds routing hops.
const DefaultTTL = 16

// Summary is the aggregate state of a subtree.
type Summary struct {
	ClusterID string // root cluster of the subtree
	Clusters  int
	Nodes     int
	FreeMIPS  float64
	// MaxNodeFreeMIPS is the largest single-node free CPU anywhere in the
	// subtree.
	MaxNodeFreeMIPS float64
	TotalMIPS       float64
}

// RouteResult describes where a routed submission landed.
type RouteResult struct {
	ClusterID string
	AppID     string
	Hops      int
}

// Node is one cluster's presence in the hierarchy.
type Node struct {
	clusterID string
	local     *grm.GRM
	inv       orb.Invoker

	// mu guards selfRef, parent, children and routed.
	mu       sync.Mutex
	selfRef  orb.ObjectRef
	parent   orb.ObjectRef // zero when root
	children map[string]orb.ObjectRef
	routed   int
}

// NewNode returns a hierarchy node fronting the given local GRM.
func NewNode(local *grm.GRM, inv orb.Invoker) *Node {
	return &Node{
		clusterID: local.ClusterID(),
		local:     local,
		inv:       inv,
		children:  make(map[string]orb.ObjectRef),
	}
}

// SetSelfRef records this node's own reference (needed before linking).
func (n *Node) SetSelfRef(ref orb.ObjectRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.selfRef = ref
}

// SetParent links this node under a parent hierarchy node.
func (n *Node) SetParent(ref orb.ObjectRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parent = ref
}

// AddChild links a child subtree.
func (n *Node) AddChild(clusterID string, ref orb.ObjectRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.children[clusterID] = ref
}

// routedCount returns how many submissions this node has routed.
func (n *Node) routedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.routed
}

// Summary computes the aggregate over this node's whole subtree, querying
// children remotely. Unreachable children are skipped.
func (n *Node) Summary() Summary {
	local := n.local.Summary()
	agg := Summary{
		ClusterID:       n.clusterID,
		Clusters:        1,
		Nodes:           local.Nodes,
		FreeMIPS:        local.FreeMIPS,
		MaxNodeFreeMIPS: local.MaxNodeFreeMIPS,
		TotalMIPS:       local.TotalMIPS,
	}
	for _, c := range n.childRefList() {
		child, err := querySummary(n.inv, c.ref)
		if err != nil {
			continue
		}
		agg.Clusters += child.Clusters
		agg.Nodes += child.Nodes
		agg.FreeMIPS += child.FreeMIPS
		if child.MaxNodeFreeMIPS > agg.MaxNodeFreeMIPS {
			agg.MaxNodeFreeMIPS = child.MaxNodeFreeMIPS
		}
		agg.TotalMIPS += child.TotalMIPS
	}
	return agg
}

// childRef is one linked child subtree.
type childRef struct {
	id  string
	ref orb.ObjectRef
}

// childRefList snapshots the children in sorted cluster-ID order, so that
// every traversal queries (and therefore contacts) subtrees in the same
// deterministic sequence regardless of map iteration order.
func (n *Node) childRefList() []childRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]childRef, 0, len(n.children))
	for id, ref := range n.children {
		out = append(out, childRef{id: id, ref: ref})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Submit routes an application through the hierarchy starting at this node
// and returns where it was accepted.
func (n *Node) Submit(spec protocol.ApplicationSpec) (RouteResult, error) {
	return n.route(spec, DefaultTTL, "")
}

// route implements the descent/climb decision. excludeChild prevents
// immediately re-descending into the subtree a request just climbed out of.
func (n *Node) route(spec protocol.ApplicationSpec, ttl int, excludeChild string) (RouteResult, error) {
	if ttl <= 0 {
		return RouteResult{}, fmt.Errorf("%w: hop budget exhausted", ErrUnroutable)
	}
	n.mu.Lock()
	n.routed++
	n.mu.Unlock()

	// Demand heuristic: a BSP gang needs simultaneous capacity for every
	// process; bags and sequential apps queue, so one process's worth of
	// capacity suffices for admission.
	demand := spec.EffectiveAlloc().MIPS
	if spec.Kind == protocol.AppBSP {
		demand *= float64(spec.NumTasks)
	}

	// 1. Local cluster: accept when the local free capacity covers the
	// demand AND some node can host a single process (a hint — the real
	// reservation protocol still negotiates). A replica that does not lead
	// holds no offers to judge by: its GRM forwards the caller to the leader.
	perProc := spec.EffectiveAlloc().MIPS
	local := n.local.Summary()
	if local.FreeMIPS >= demand && local.MaxNodeFreeMIPS >= perProc && local.Nodes > 0 ||
		n.local.Role() == grm.RoleFollower {
		appID, err := n.local.Submit(spec)
		if err == nil {
			return RouteResult{ClusterID: n.clusterID, AppID: appID, Hops: 0}, nil
		}
		if orb.IsCode(err, orb.CodeForward) || orb.IsCode(err, orb.CodeTimeout) {
			// A replica that does not lead: the caller goes to the leader. A
			// timeout may have left the app here: another cluster would run
			// it twice.
			return RouteResult{}, err
		}
	}

	// 2. Descend: pick the child subtree with the most free MIPS that
	// covers the demand.
	type childSummary struct {
		id  string
		ref orb.ObjectRef
		sum Summary
	}
	var kids []childSummary
	for _, c := range n.childRefList() {
		if c.id == excludeChild {
			continue
		}
		sum, err := querySummary(n.inv, c.ref)
		if err != nil {
			continue
		}
		kids = append(kids, childSummary{id: c.id, ref: c.ref, sum: sum})
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].sum.FreeMIPS != kids[j].sum.FreeMIPS {
			return kids[i].sum.FreeMIPS > kids[j].sum.FreeMIPS
		}
		return kids[i].id < kids[j].id
	})
	for _, kid := range kids {
		if kid.sum.FreeMIPS < demand {
			break
		}
		if kid.sum.MaxNodeFreeMIPS < perProc {
			continue
		}
		res, err := routeRemote(n.inv, kid.ref, spec, ttl-1, "")
		if err == nil {
			res.Hops++
			return res, nil
		}
	}

	// 3. Climb to the parent, excluding ourselves from its descent.
	n.mu.Lock()
	parent := n.parent
	n.mu.Unlock()
	if !parent.IsZero() {
		res, err := routeRemote(n.inv, parent, spec, ttl-1, n.clusterID)
		if err == nil {
			res.Hops++
			return res, nil
		}
		return RouteResult{}, err
	}
	return RouteResult{}, fmt.Errorf("%w (demand %.0f MIPS)", ErrUnroutable, demand)
}

// Servant exposes the node's hierarchy interface.
func (n *Node) Servant() orb.Servant {
	m := orb.NewOpMux()
	orb.Serve(m, summaryOp, func(struct{}) (Summary, error) {
		return n.Summary(), nil
	})
	orb.Serve(m, routeOp, func(r routeRequest) (RouteResult, error) {
		res, err := n.route(r.Spec, r.TTL, r.Exclude)
		if err != nil {
			// A failed remote hop's error is a *RemoteError of its own
			// code: the caller sees any routing failure as CodeApplication.
			return RouteResult{}, orb.Errorf(orb.CodeApplication, "%s", err.Error())
		}
		return res, nil
	})
	return m
}

func (r routeRequest) encode(e *orb.Encoder) {
	r.Spec.Encode(e)
	e.PutInt(r.TTL)
	e.PutString(r.Exclude)
}

func decodeRouteRequest(d *orb.Decoder) (routeRequest, error) {
	spec, err := protocol.DecodeApplicationSpec(d)
	if err != nil {
		return routeRequest{}, err
	}
	r := routeRequest{Spec: spec, TTL: d.Int()}
	r.Exclude = d.String()
	return r, d.Err()
}

func encodeRouteResult(res RouteResult, e *orb.Encoder) {
	e.PutString(res.ClusterID)
	e.PutString(res.AppID)
	e.PutInt(res.Hops)
}

func decodeRouteResult(d *orb.Decoder) (RouteResult, error) {
	res := RouteResult{
		ClusterID: d.String(),
		AppID:     d.String(),
	}
	res.Hops = d.Int()
	return res, d.Err()
}

func encodeSummary(s Summary, e *orb.Encoder) {
	e.PutString(s.ClusterID)
	e.PutInt(s.Clusters)
	e.PutInt(s.Nodes)
	e.PutF64(s.FreeMIPS)
	e.PutF64(s.MaxNodeFreeMIPS)
	e.PutF64(s.TotalMIPS)
}

func decodeSummary(d *orb.Decoder) (Summary, error) {
	s := Summary{
		ClusterID:       d.String(),
		Clusters:        d.Int(),
		Nodes:           d.Int(),
		FreeMIPS:        d.F64(),
		MaxNodeFreeMIPS: d.F64(),
		TotalMIPS:       d.F64(),
	}
	return s, d.Err()
}

func querySummary(inv orb.Invoker, ref orb.ObjectRef) (Summary, error) {
	// The summary aggregation recurses over the deployment hierarchy, which
	// links form as a tree (AddChild/SetParent pair parents with children);
	// the recursion descends strictly child-ward, so it terminates at the
	// leaves and never re-enters a node already on the call path.
	//lint:allow rpccycle summary recursion descends the acyclic deployment tree
	return summaryOp.Invoke(inv, ref, struct{}{})
}

func routeRemote(inv orb.Invoker, ref orb.ObjectRef, spec protocol.ApplicationSpec, ttl int, exclude string) (RouteResult, error) {
	// Routing can climb as well as descend, so the hierarchy links alone do
	// not rule out revisiting a node — the explicit TTL does: every remote
	// hop forwards ttl-1 and route() refuses ttl <= 0, bounding any cycle.
	//lint:allow rpccycle route recursion is hop-bounded by the TTL argument
	return routeOp.Invoke(inv, ref, routeRequest{Spec: spec, TTL: ttl, Exclude: exclude})
}

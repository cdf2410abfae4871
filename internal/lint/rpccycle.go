package lint

import (
	"strings"
)

// RPCCycle detects synchronous remote-invocation cycles across components.
var RPCCycle = &Analyzer{
	Name: "rpccycle",
	Doc: "InteGrade's intra-cluster protocols are synchronous request/reply " +
		"chains over the ORB, so a cycle of Invoke edges — a GRM handler " +
		"that calls back into an LRM method which can RPC to the GRM — is a " +
		"distributed self-deadlock waiting for a single-threaded servant or " +
		"a full connection pool. The analyzer builds the repo call graph, " +
		"links every X.Invoke(inv, ref, req) call site on a package-level " +
		"orb.Op X to the handlers registered for X via orb.Serve or " +
		"orb.ServeRaw anywhere in the repo, and reports each RPC edge that " +
		"lies on a strongly connected component. " +
		"Deliberately bounded recursion (TTL-guarded routing over an " +
		"acyclic deployment tree) must carry a justifying //lint:allow " +
		"rpccycle comment.",
	Run: runRPCCycle,
}

func runRPCCycle(pass *Pass) {
	g := pass.Graph
	comps := sccs(g.Nodes, func(n *FuncNode) []*FuncNode {
		to := make([]*FuncNode, len(n.Edges))
		for i, e := range n.Edges {
			to[i] = e.To
		}
		return to
	})
	for _, members := range comps {
		// A single node with no self edge is trivially acyclic.
		if len(members) == 1 && !hasSelfEdge(members[0]) {
			continue
		}
		// Report every RPC edge that stays inside the component: each one
		// is a remote invocation that can re-enter its own caller.
		comp := map[*FuncNode]bool{}
		for _, n := range members {
			comp[n] = true
		}
		g.sortNodes(members)
		for _, n := range members {
			for _, e := range n.Edges {
				if e.Kind != EdgeRPC || !comp[e.To] {
					continue
				}
				path := g.CyclePath(comp, n, e)
				pass.Reportf(e.Pos,
					"synchronous RPC %q can re-enter its own caller: %s",
					e.Op, strings.Join(path, " -> "))
			}
		}
	}
}

func hasSelfEdge(n *FuncNode) bool {
	for _, e := range n.Edges {
		if e.To == n {
			return true
		}
	}
	return false
}

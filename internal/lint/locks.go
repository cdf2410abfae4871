package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Locks checks everything a held mutex must not meet: a blocking operation,
// a call that may block, and an acquisition out of the declared order.
var Locks = &Analyzer{
	Name: "locks",
	Doc: "A GRM that holds its lock across a Reserve/Execute round trip to an " +
		"LRM can stall the whole cluster, and two code paths that nest two " +
		"mutexes in opposite orders can deadlock it. This analyzer scans " +
		"every function body once, tracking which sync.Mutex/RWMutex is " +
		"held through Lock/Unlock pairs and defer Unlock (nested blocks are " +
		"scanned with a copy of the state), and reports three kinds of " +
		"finding. (1) A blocking operation under a lock: an ORB invocation " +
		"(Invoke, protocol client stubs), a channel send or receive, a " +
		"blocking select, WaitGroup.Wait or Sleep; sync.Cond.Wait is exempt " +
		"(it is specified to hold the lock). (2) A call under a lock whose " +
		"callee may block, directly or through helpers, by a may-block " +
		"summary computed once over the call graph, with the path to the " +
		"blocking operation. (3) Lock order: every mutex is named " +
		"canonically (pkg.Type.field for struct fields, pkg.var for package " +
		"globals), and each acquisition made while another lock is held — " +
		"directly or through helper calls, by per-function acquires " +
		"summaries — is an edge of the global acquisition-order graph. " +
		"Acquiring a held lock is reported as self-deadlock, a cycle as a " +
		"potential deadlock, and every edge must be covered by a declared " +
		"hierarchy annotation: //lint:lockorder A<B (chains A<B<C declare " +
		"consecutive pairs; declarations are global and transitive). " +
		"Diagnostics carry the call chain from the holding function to the " +
		"acquisition.",
	Run: runLocks,
}

// lockWitness records how a function comes to acquire a lock: directly
// (via == nil) at pos, or through a call at pos into via.
type lockWitness struct {
	pos token.Pos
	via *FuncNode
}

// lockEdgeSite is one observed "to acquired while from held" fact.
type lockEdgeSite struct {
	from, to string
	pos      token.Pos
	chain    []string
}

// lockCall is a call to a repo function made while canonically named locks
// are held: an edge to every lock the callee acquires, once the acquires
// summaries are known.
type lockCall struct {
	target *FuncNode
	pos    token.Pos
	held   []lockAcq
}

func runLocks(pass *Pass) {
	decl := collectLockDecls(pass)
	reportDeclCycles(pass, decl)
	declReach := transitiveClosure(decl)

	nodes := map[*ast.BlockStmt]*FuncNode{}
	for _, n := range pass.Graph.Nodes {
		if n.Body != nil {
			nodes[n.Body] = n
		}
	}
	direct := map[*FuncNode][]lockAcq{}
	var edges []lockEdgeSite
	var calls []lockCall
	for _, pkg := range pass.Pkgs {
		forEachFuncBody(pkg.Syntax, func(body *ast.BlockStmt) {
			// A literal in a package-level initializer has no graph node: it
			// is checked for blocking, but takes no part in lock order.
			node := nodes[body]
			sc := &lockScanner{
				info: pkg.TypesInfo,
				onBlocking: func(pos token.Pos, desc string, held lockState) {
					pass.Reportf(pos, "%s while holding %s", desc, heldNames(held))
				},
				onCall: func(call *ast.CallExpr, held lockState) {
					if len(held) > 0 {
						checkLockedCall(pass, pkg.TypesInfo, call, held, &calls)
					}
				},
			}
			if node != nil {
				sc.canon = func(recv ast.Expr) string { return lockCanon(node, recv) }
				sc.onAcquire = func(acq lockAcq, held lockState) {
					direct[node] = append(direct[node], acq)
					for _, h := range heldAcqs(held) {
						edges = append(edges, lockEdgeSite{from: h.canon, to: acq.canon, pos: acq.pos})
					}
				}
			}
			sc.scan(body.List, lockState{})
		})
	}
	edges = append(edges, calledLockEdges(pass.Graph, direct, calls)...)

	for _, e := range edges {
		via := ""
		if len(e.chain) > 0 {
			via = " (via " + strings.Join(e.chain, " -> ") + ")"
		}
		switch {
		case e.from == e.to:
			pass.Reportf(e.pos, "lock %s acquired while already held%s", e.to, via)
		case declReach[e.to][e.from]:
			pass.Reportf(e.pos,
				"lock order inversion: %s acquired while holding %s, but the declared order is %s < %s%s",
				e.to, e.from, e.to, e.from, via)
		case !declReach[e.from][e.to]:
			pass.Reportf(e.pos,
				"undocumented lock-order edge %s -> %s%s; declare //lint:lockorder %s<%s or fix the ordering",
				e.from, e.to, via, e.from, e.to)
		}
	}
	reportObservedCycles(pass, edges)
}

// checkLockedCall reports a call made under a lock that blocks, or whose
// callee may block, and records a call to a repo function for lock order.
func checkLockedCall(pass *Pass, info *types.Info, call *ast.CallExpr, held lockState, calls *[]lockCall) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	target := pass.Graph.NodeOf(fn)
	if acqs := heldAcqs(held); target != nil && len(acqs) > 0 {
		*calls = append(*calls, lockCall{target: target, pos: call.Pos(), held: acqs})
	}
	if desc, _ := directBlockingDesc(info, call); desc != "" {
		pass.Reportf(call.Pos(), "%s while holding %s", desc, heldNames(held))
		return
	}
	if target == nil {
		return
	}
	if blocks, trace := pass.Graph.MayBlock(target); blocks {
		pass.Reportf(call.Pos(),
			"call to %s while holding %s may block: %s",
			target.Name(), heldNames(held), strings.Join(trace, " -> "))
	}
}

// calledLockEdges computes, by fixpoint over static and closure edges, the
// locks each function acquires (an RPC edge runs on the remote component's
// own goroutine, not under the caller's locks), and turns each call made
// under a lock into an edge to every lock its callee acquires, with the
// call chain to the acquisition.
func calledLockEdges(g *CallGraph, direct map[*FuncNode][]lockAcq, calls []lockCall) []lockEdgeSite {
	acquires := map[*FuncNode]map[string]lockWitness{}
	for _, node := range g.Nodes {
		for _, a := range direct[node] {
			if acquires[node] == nil {
				acquires[node] = map[string]lockWitness{}
			}
			if _, ok := acquires[node][a.canon]; !ok {
				acquires[node][a.canon] = lockWitness{pos: a.pos}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			for _, e := range n.Edges {
				if e.Kind == EdgeRPC {
					continue
				}
				for _, lock := range slices.Sorted(maps.Keys(acquires[e.To])) {
					if _, ok := acquires[n][lock]; ok {
						continue
					}
					if acquires[n] == nil {
						acquires[n] = map[string]lockWitness{}
					}
					acquires[n][lock] = lockWitness{pos: e.Pos, via: e.To}
					changed = true
				}
			}
		}
	}

	var edges []lockEdgeSite
	for _, c := range calls {
		for _, lock := range slices.Sorted(maps.Keys(acquires[c.target])) {
			// Witness links always point at an entry established earlier,
			// so the walk terminates.
			var chain []string
			for cur := c.target; cur != nil; cur = acquires[cur][lock].via {
				chain = append(chain, cur.Name())
			}
			for _, h := range c.held {
				edges = append(edges, lockEdgeSite{from: h.canon, to: lock, pos: c.pos, chain: chain})
			}
		}
	}
	return edges
}

// heldAcqs returns the canonically named held locks, sorted for determinism.
func heldAcqs(held lockState) []lockAcq {
	out := make([]lockAcq, 0, len(held))
	for _, a := range held {
		if a.canon != "" {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].canon < out[j].canon })
	return out
}

// lockCanon names a mutex receiver expression repo-widely: a struct field
// becomes pkg.Type.field, a package-level variable pkg.var, and a local
// variable is scoped to its function (it cannot participate in a hierarchy
// beyond that function's calls).
func lockCanon(node *FuncNode, recv ast.Expr) string {
	info := node.Pkg.TypesInfo
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if named := namedType(info.TypeOf(x.X)); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name
		}
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + x.Sel.Name
			}
		}
		return types.ExprString(recv)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + x.Name
			}
			return node.Name() + "." + x.Name
		}
		return types.ExprString(recv)
	}
	return types.ExprString(recv)
}

// lockDecl is one declared A<B pair.
type lockDecl struct {
	before, after string
	pos           token.Pos
}

// collectLockDecls parses every //lint:lockorder directive in the loaded
// set. The payload is a chain LockA<LockB[<LockC...]; whitespace around '<'
// is allowed, and a chain declares its consecutive pairs. Malformed
// directives are reported.
func collectLockDecls(pass *Pass) []lockDecl {
	var decls []lockDecl
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "lint:lockorder") {
						continue
					}
					payload := strings.Join(strings.Fields(strings.TrimPrefix(text, "lint:lockorder")), "")
					parts := strings.Split(payload, "<")
					if len(parts) < 2 || slices.Contains(parts, "") {
						pass.Reportf(c.Pos(),
							"malformed //lint:lockorder declaration %q; expected LockA<LockB[<LockC...]", payload)
						continue
					}
					for i := 0; i+1 < len(parts); i++ {
						decls = append(decls, lockDecl{before: parts[i], after: parts[i+1], pos: c.Pos()})
					}
				}
			}
		}
	}
	return decls
}

// transitiveClosure computes reachability over the declared pairs: declaring
// A<B and B<C covers the observed edge A -> C.
func transitiveClosure(decls []lockDecl) map[string]map[string]bool {
	reach := map[string]map[string]bool{}
	nodes := map[string]bool{}
	add := func(a, b string) {
		if reach[a] == nil {
			reach[a] = map[string]bool{}
		}
		reach[a][b] = true
		nodes[a], nodes[b] = true, true
	}
	for _, d := range decls {
		add(d.before, d.after)
	}
	keys := slices.Sorted(maps.Keys(nodes))
	for _, k := range keys {
		for _, i := range keys {
			if !reach[i][k] {
				continue
			}
			for j := range reach[k] {
				add(i, j)
			}
		}
	}
	return reach
}

// reportDeclCycles flags contradictory declarations: the declared relation
// must be a partial order, so any cycle among the declared pairs is an
// authoring error.
func reportDeclCycles(pass *Pass, decls []lockDecl) {
	reach := transitiveClosure(decls)
	seen := map[string]bool{}
	for _, d := range decls {
		if reach[d.after][d.before] && !seen[d.before+"<"+d.after] {
			seen[d.before+"<"+d.after] = true
			seen[d.after+"<"+d.before] = true
			pass.Reportf(d.pos,
				"contradictory lock-order declarations: %s<%s completes a declaration cycle", d.before, d.after)
		}
	}
}

// reportObservedCycles finds strongly connected components in the observed
// acquisition-order graph (self-edges are reported individually above) and
// reports each once, at the earliest contributing site, with a
// representative cycle path.
func reportObservedCycles(pass *Pass, edges []lockEdgeSite) {
	adj := map[string]map[string]bool{}
	seen := map[string]bool{}
	for _, e := range edges {
		seen[e.from], seen[e.to] = true, true
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	successors := func(n string) []string { return slices.Sorted(maps.Keys(adj[n])) }

	for _, comp := range sccs(slices.Sorted(maps.Keys(seen)), successors) {
		if len(comp) < 2 {
			continue
		}
		sort.Strings(comp)
		inComp := map[string]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		// Representative path: from the smallest member, greedily follow the
		// smallest in-component successor until the start repeats.
		path := []string{comp[0]}
		visited := map[string]bool{comp[0]: true}
		cur := comp[0]
		for {
			nextHop := ""
			for _, m := range successors(cur) {
				if inComp[m] {
					nextHop = m
					break
				}
			}
			if nextHop == "" || nextHop == comp[0] || visited[nextHop] {
				if nextHop != "" {
					path = append(path, nextHop)
				}
				break
			}
			visited[nextHop] = true
			path = append(path, nextHop)
			cur = nextHop
		}
		if path[len(path)-1] != comp[0] {
			path = append(path, comp[0])
		}
		// Earliest site among the component's internal edges.
		pos := token.Pos(0)
		for _, e := range edges {
			if inComp[e.from] && inComp[e.to] {
				if pos == 0 || e.pos < pos {
					pos = e.pos
				}
			}
		}
		pass.Reportf(pos, "lock-order cycle (potential deadlock): %s", strings.Join(path, " -> "))
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the model every analyzer shares: an approximate call graph
// over every loaded package, plus per-function summaries ("may this
// function block?", "may it issue an RPC?") that rpccycle, maporder, locks
// and hotpath read.
//
// The graph is deliberately approximate in well-defined ways:
//
//   - Static edges connect a function to every callee the type checker can
//     resolve to a function or method declared in the loaded packages.
//     Calls through function values and interface methods have no body to
//     follow and produce no edge.
//   - Containment edges connect a function to the function literals defined
//     inside it, except literals spawned with `go` (they do not run on the
//     caller's stack) or handed to an AfterFunc-style scheduler (they run
//     later, on the event loop).
//   - RPC edges connect each `X.Invoke(inv, ref, req)` call site whose
//     receiver X is a package-level `*orb.Op` to every handler registered
//     for the same X via `orb.Serve(mux, X, fn)`, `orb.ServeRaw` or
//     `orb.ServeEncode` anywhere in the loaded set. This is what lets the
//     analyzers see through the ORB: a client's call lands in the remote
//     component's servant.
//   - A literal handed to a repo-local wrapper — a function that passes one
//     of its parameters straight on to an AfterFunc-style scheduler, or to
//     orb.Serve, ServeRaw or ServeEncode — is treated as handed to the callee
//     the wrapper passes it to: one level deep, and only when the wrapper
//     does nothing else with the parameter.
//
// Summaries are memoized on the node, so whole-repo analysis stays linear
// in the size of the graph.

const orbPkgPath = "integrade/internal/orb"

// EdgeKind distinguishes how control reaches the target.
type EdgeKind int

const (
	// EdgeStatic is a direct call resolved by the type checker.
	EdgeStatic EdgeKind = iota
	// EdgeClosure links a function to a literal defined (and presumed
	// called) within it.
	EdgeClosure
	// EdgeRPC links an Op.Invoke call site to a handler registered for the
	// same Op.
	EdgeRPC
)

// Edge is one call-graph edge.
type Edge struct {
	To   *FuncNode
	Pos  token.Pos
	Kind EdgeKind
	// Op is the operation name on EdgeRPC edges.
	Op string
}

// blockingOp records one directly blocking operation inside a function.
type blockingOp struct {
	pos  token.Pos
	desc string // e.g. "channel receive", "ORB invocation Invoke"
	rpc  bool   // true when the op is a remote invocation
}

// FuncNode is one function, method or function literal in the graph.
type FuncNode struct {
	// Obj is the declared function, nil for literals.
	Obj *types.Func
	// Lit is the literal, nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the package the body lives in.
	Pkg *Package
	// Body is the function body (nil for bodyless declarations).
	Body *ast.BlockStmt
	// Edges are the outgoing call edges in source order.
	Edges []Edge
	// name is the human-readable identity used in diagnostics.
	name string

	// blocking are the directly blocking operations in this body.
	blocking []blockingOp

	// Summary bits, valid once CallGraph.ensureSummaries has run.
	mayBlock  bool
	mayInvoke bool
	// blockWitness is the callee through which mayBlock was established,
	// nil when the blocking operation is in this body.
	blockWitness *FuncNode
}

// Name returns the diagnostic name, e.g. "grm.(*GRM).placeTask" or
// "lrm.(*LRM).Servant·func2".
func (n *FuncNode) Name() string { return n.name }

// CallGraph is the whole-program model shared by the analyzers.
type CallGraph struct {
	fset *token.FileSet
	// Nodes in deterministic (source position) order.
	Nodes []*FuncNode
	// invokes are the Op.Invoke call sites in source order.
	invokes []invokeSite
	// byObj maps declared functions to their nodes.
	byObj map[*types.Func]*FuncNode
	// byName maps types.Func.FullName() to nodes. The loader type-checks
	// each target package from source but resolves its imports through
	// compiler export data, so a cross-package callee is a *different*
	// types.Func object than the one recorded at its definition; the full
	// name is the identity that survives that split.
	byName map[string]*FuncNode
	// handlers maps Op keys (opKey) to registered handler nodes.
	handlers map[string][]*FuncNode
	// opNames maps Op keys to the operation names their declarations give.
	opNames map[string]string
	// wrappers maps the repo-local wrappers of AfterFunc and orb.Serve* to
	// what they pass on.
	wrappers map[*FuncNode]wrapper

	summariesDone bool
}

// NodeOf returns the node for a declared function, or nil. The fallback by
// full name resolves cross-package references, where the caller's view of
// the callee (from export data) is a distinct object from the definition.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if n := g.byObj[fn]; n != nil {
		return n
	}
	return g.byName[fn.FullName()]
}

// invokeSite is one `X.Invoke(inv, ref, req)` call site on a package-level
// Op X: the source end of an RPC edge.
type invokeSite struct {
	from *FuncNode
	pos  token.Pos
	op   string // opKey of X
}

// BuildCallGraph constructs the approximate call graph over pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj:    map[*types.Func]*FuncNode{},
		byName:   map[string]*FuncNode{},
		handlers: map[string][]*FuncNode{},
		opNames:  map[string]string{},
		wrappers: map[*FuncNode]wrapper{},
	}
	if len(pkgs) > 0 {
		g.fset = pkgs[0].Fset
	}

	// Pass 1: create a node per declared function so edges can resolve
	// forward references across packages.
	type declWork struct {
		pkg  *Package
		decl *ast.FuncDecl
		node *FuncNode
	}
	var work []declWork
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					g.recordOpNames(pkg.TypesInfo, gd)
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{
					Obj:  obj,
					Pkg:  pkg,
					Body: fd.Body,
					name: funcDisplayName(obj),
				}
				g.byObj[obj] = node
				g.byName[obj.FullName()] = node
				g.Nodes = append(g.Nodes, node)
				work = append(work, declWork{pkg: pkg, decl: fd, node: node})
			}
		}
	}

	// Pass 2: find the wrappers, which the walk consults at their call
	// sites; then walk bodies, creating literal nodes and collecting edges,
	// blocking ops, Serve registrations and Op.Invoke sites.
	for _, w := range work {
		if wr, ok := findWrapper(w.pkg.TypesInfo, w.decl); ok {
			g.wrappers[w.node] = wr
		}
	}
	b := &graphBuilder{graph: g, litNodes: map[*ast.FuncLit]*FuncNode{}}
	for _, w := range work {
		if w.decl.Body != nil {
			b.walkBody(w.node, w.decl.Body)
		}
	}

	// Pass 3: resolve handler registrations (the literal nodes they refer to
	// now all exist), then RPC edges.
	for _, reg := range b.handlerRegs {
		if h := b.handlerNode(reg.parent, reg.arg); h != nil {
			g.handlers[reg.op] = append(g.handlers[reg.op], h)
		}
	}
	for _, site := range g.invokes {
		name := g.opNames[site.op]
		if name == "" {
			name = site.op
		}
		for _, h := range g.handlers[site.op] {
			site.from.Edges = append(site.from.Edges, Edge{
				To:   h,
				Pos:  site.pos,
				Kind: EdgeRPC,
				Op:   name,
			})
		}
	}
	return g
}

// recordOpNames notes the Name of every package-level `X = &orb.Op[…]{Name:
// <const>}` declaration in gd, for the diagnostics on X's RPC edges.
func (g *CallGraph) recordOpNames(info *types.Info, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, id := range vs.Names {
			key, ok := opKey(info, id)
			if !ok {
				continue
			}
			v := ast.Unparen(vs.Values[i])
			if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
				v = u.X
			}
			lit, ok := v.(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Name" {
					if name, ok := constString(info, kv.Value); ok {
						g.opNames[key] = name
					}
				}
			}
		}
	}
}

// opKey identifies the package-level *orb.Op variable expr names by its
// package path and name: like byName, the identity that survives the
// loader's split between a definition and its export-data view.
func opKey(info *types.Info, expr ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Scope().Lookup(v.Name()) != v {
		return "", false
	}
	named := namedType(v.Type())
	if named == nil || named.Obj().Name() != "Op" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != orbPkgPath {
		return "", false
	}
	return v.Pkg().Path() + "." + v.Name(), true
}

// graphBuilder carries the per-build state of the AST walk.
type graphBuilder struct {
	graph       *CallGraph
	handlerRegs []handlerReg
	litNodes    map[*ast.FuncLit]*FuncNode
}

// handlerReg is one orb.Serve registration awaiting resolution.
type handlerReg struct {
	parent *FuncNode
	op     string // opKey of the served Op
	arg    ast.Expr
}

// walkBody scans one function body, attributing everything it finds to
// node. Nested literals become child nodes scanned recursively; the walk
// does not descend into them from the parent.
func (b *graphBuilder) walkBody(node *FuncNode, body *ast.BlockStmt) {
	info := node.Pkg.TypesInfo
	litSeq := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			litSeq++
			child := &FuncNode{
				Lit:  s,
				Pkg:  node.Pkg,
				Body: s.Body,
				name: fmt.Sprintf("%s·func%d", node.name, litSeq),
			}
			b.graph.Nodes = append(b.graph.Nodes, child)
			b.litNodes[s] = child
			b.walkBody(child, s.Body)
			if !b.asyncLit(node.Pkg, s, body) {
				node.Edges = append(node.Edges, Edge{To: child, Pos: s.Pos(), Kind: EdgeClosure})
			}
			return false
		case *ast.SelectStmt:
			// A select with a default never blocks; without one it does.
			if !selectHasDefault(s) {
				node.blocking = append(node.blocking, blockingOp{pos: s.Pos(), desc: "blocking select"})
			}
			// Scan clause bodies (and comm statements) but not through the
			// select's own blocking semantics again.
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
			}
			return false
		case *ast.SendStmt:
			node.blocking = append(node.blocking, blockingOp{pos: s.Pos(), desc: "channel send"})
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				node.blocking = append(node.blocking, blockingOp{pos: s.Pos(), desc: "channel receive"})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					node.blocking = append(node.blocking, blockingOp{pos: s.Pos(), desc: "range over channel"})
				}
			}
		case *ast.CallExpr:
			b.recordCall(node, s)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// recordCall classifies one call expression in node's body.
func (b *graphBuilder) recordCall(node *FuncNode, call *ast.CallExpr) {
	info := node.Pkg.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}

	inOrb := fn.Pkg() != nil && fn.Pkg().Path() == orbPkgPath

	// Handler registration: orb.Serve(mux, X, fn), ServeRaw or ServeEncode.
	// Resolution is deferred until every function-literal node exists.
	if inOrb && isServe(fn.Name()) && len(call.Args) == 3 {
		if op, ok := opKey(info, call.Args[1]); ok {
			b.handlerRegs = append(b.handlerRegs, handlerReg{parent: node, op: op, arg: call.Args[2]})
		}
	}
	// The same through a wrapper of Serve, whose Op is its caller's argument
	// or its own.
	if w, ok := b.graph.wrappers[b.graph.NodeOf(fn)]; ok && w.serve && w.fnParam < len(call.Args) {
		op, ok := w.op, w.op != ""
		if w.opParam >= 0 && w.opParam < len(call.Args) {
			op, ok = opKey(info, call.Args[w.opParam])
		}
		if ok {
			b.handlerRegs = append(b.handlerRegs, handlerReg{parent: node, op: op, arg: call.Args[w.fnParam]})
		}
	}

	// Direct blocking operations.
	if desc, rpc := directBlockingDesc(info, call); desc != "" {
		node.blocking = append(node.blocking, blockingOp{pos: call.Pos(), desc: desc, rpc: rpc})
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && rpc && inOrb {
			if op, ok := opKey(info, sel.X); ok {
				b.graph.invokes = append(b.graph.invokes, invokeSite{from: node, pos: call.Pos(), op: op})
			}
		}
	}

	// Static edge to a resolved repo function (NodeOf, not byObj: the
	// callee object differs from the definition on cross-package calls).
	if target := b.graph.NodeOf(fn); target != nil {
		node.Edges = append(node.Edges, Edge{To: target, Pos: call.Pos(), Kind: EdgeStatic})
	}
}

// isServe reports whether an orb function of that name registers a servant.
func isServe(name string) bool {
	return name == "Serve" || name == "ServeRaw" || name == "ServeEncode"
}

// handlerNode resolves the handler argument of a Serve call: a literal
// (already turned into a node by the surrounding walk), a named function or
// method value, or a handler-factory call whose returned closure we
// approximate by the factory itself.
func (b *graphBuilder) handlerNode(parent *FuncNode, arg ast.Expr) *FuncNode {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return b.litNodes[a]
	case *ast.Ident, *ast.SelectorExpr:
		if fn := calleeFunc(parent.Pkg.TypesInfo, &ast.CallExpr{Fun: a}); fn != nil {
			return b.graph.NodeOf(fn)
		}
		return nil
	case *ast.CallExpr:
		if fn := calleeFunc(parent.Pkg.TypesInfo, a); fn != nil {
			return b.graph.NodeOf(fn)
		}
		return nil
	}
	return nil
}

// wrapper is a repo-local function that passes its parameter fnParam straight
// on: to an AfterFunc-style scheduler, or, when serve is set, to orb.Serve,
// ServeRaw or ServeEncode as the handler of the Op its parameter opParam
// names, or of op when opParam is -1.
type wrapper struct {
	fnParam int
	serve   bool
	opParam int
	op      string // opKey of a package-level Op the wrapper serves itself
}

// findWrapper reports whether decl is a wrapper: its body passes one of its
// parameters to an AfterFunc or orb.Serve* call of its own, outside any
// literal, and does nothing else with it.
func findWrapper(info *types.Info, decl *ast.FuncDecl) (wrapper, bool) {
	if decl.Body == nil {
		return wrapper{}, false
	}
	var params []types.Object
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, info.Defs[name])
		}
	}
	param := func(e ast.Expr) int {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				for i, p := range params {
					if p == obj {
						return i
					}
				}
			}
		}
		return -1
	}
	var w wrapper
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok {
			_, lit := n.(*ast.FuncLit)
			return !found && !lit
		}
		fn := calleeFunc(info, call)
		switch {
		case fn == nil:
		case fn.Name() == "AfterFunc":
			for _, a := range call.Args {
				if i := param(a); i >= 0 {
					w, found = wrapper{fnParam: i, opParam: -1}, true
				}
			}
		case isServe(fn.Name()) && fn.Pkg() != nil && fn.Pkg().Path() == orbPkgPath && len(call.Args) == 3:
			if i := param(call.Args[2]); i >= 0 {
				w, found = wrapper{fnParam: i, serve: true, opParam: param(call.Args[1])}, true
				if w.opParam < 0 {
					w.op, _ = opKey(info, call.Args[1])
				}
			}
		}
		return !found
	})
	if !found {
		return wrapper{}, false
	}
	uses := 0
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == params[w.fnParam] {
			uses++
		}
		return true
	})
	return w, uses == 1
}

// asyncLit reports whether lit only runs asynchronously with respect to the
// enclosing function: spawned via `go lit(...)`, passed to an AfterFunc-style
// scheduler, or registered as an RPC handler via orb.Serve, ServeRaw,
// ServeEncode or OpMux.Handle — directly, or through a wrapper that passes it
// straight on to one of them. Such literals never block their definer — a
// registered handler runs later, on the server dispatch path, and is reached
// through EdgeRPC from the matching Op.Invoke sites instead.
func (b *graphBuilder) asyncLit(pkg *Package, lit *ast.FuncLit, body *ast.BlockStmt) bool {
	async := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			if ast.Unparen(s.Call.Fun) == ast.Expr(lit) {
				async = true
			}
			for _, a := range s.Call.Args {
				if ast.Unparen(a) == ast.Expr(lit) {
					async = true
				}
			}
		case *ast.CallExpr:
			var name string
			switch fun := instantiated(s.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			deferred := name == "AfterFunc"
			fn := calleeFunc(pkg.TypesInfo, s)
			if name == "Handle" || isServe(name) {
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == orbPkgPath {
					deferred = true
				}
			}
			if fn != nil {
				if w, ok := b.graph.wrappers[b.graph.NodeOf(fn)]; ok && w.fnParam < len(s.Args) && ast.Unparen(s.Args[w.fnParam]) == ast.Expr(lit) {
					async = true
				}
			}
			if deferred {
				for _, a := range s.Args {
					if ast.Unparen(a) == ast.Expr(lit) {
						async = true
					}
				}
			}
		}
		return !async
	})
	return async
}

// directBlockingDesc classifies call as a directly blocking operation,
// returning a description (empty when not blocking) and whether it is a
// remote invocation. locks reports such a call under a lock as itself and
// only looks through calls that are not.
func directBlockingDesc(info *types.Info, call *ast.CallExpr) (desc string, rpc bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Name() {
	case "Invoke":
		// Any Invoke is treated as an ORB invocation: the Invoker interface,
		// its implementations, and test fakes all share the name.
		return "ORB invocation Invoke", true
	case "Sleep":
		return "Sleep", false
	case "Wait":
		if sig != nil && sig.Recv() != nil && isSyncType(sig.Recv().Type(), "WaitGroup") {
			return "WaitGroup.Wait", false
		}
	}
	// Typed protocol stubs are remote invocations in disguise.
	if sig != nil && sig.Recv() != nil {
		if named := namedType(sig.Recv().Type()); named != nil {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "integrade/internal/protocol" &&
				strings.HasSuffix(obj.Name(), "Client") && returnsError(fn) {
				return fmt.Sprintf("protocol RPC %s.%s", obj.Name(), fn.Name()), true
			}
		}
	}
	return "", false
}

// constString resolves expr to a compile-time string constant.
func constString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// ensureSummaries computes the may-block / may-invoke bits for every node
// by fixpoint iteration over the static and closure edges (RPC edges are
// excluded: the Invoke call site itself is already recorded as a blocking,
// invoking operation). Fixpoint rather than memoized recursion keeps the
// result correct on call cycles, and runs in O(edges × diameter), which is
// milliseconds for this repository.
func (g *CallGraph) ensureSummaries() {
	if g.summariesDone {
		return
	}
	g.summariesDone = true
	for _, n := range g.Nodes {
		if len(n.blocking) > 0 {
			n.mayBlock = true
		}
		for _, op := range n.blocking {
			if op.rpc {
				n.mayInvoke = true
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
				if e.To.mayBlock && !n.mayBlock {
					n.mayBlock = true
					n.blockWitness = e.To
					changed = true
				}
				if e.To.mayInvoke && !n.mayInvoke {
					n.mayInvoke = true
					changed = true
				}
			}
		}
	}
}

// MayBlock reports whether n can block (channel op, blocking select,
// WaitGroup.Wait, Sleep, ORB invocation or protocol RPC), directly or
// through any chain of static/closure calls. The second result is a trace
// from n to the blocking operation, for diagnostics.
func (g *CallGraph) MayBlock(n *FuncNode) (bool, []string) {
	g.ensureSummaries()
	if !n.mayBlock {
		return false, nil
	}
	var trace []string
	for cur := n; cur != nil; cur = cur.blockWitness {
		if cur.blockWitness == nil {
			desc := "blocks"
			if len(cur.blocking) > 0 {
				desc = cur.blocking[0].desc
			}
			trace = append(trace, cur.name+": "+desc)
			break
		}
		trace = append(trace, cur.name)
	}
	return true, trace
}

// MayInvoke reports whether n can issue a remote invocation (ORB Invoke or
// protocol RPC stub), directly or transitively.
func (g *CallGraph) MayInvoke(n *FuncNode) bool {
	g.ensureSummaries()
	return n.mayInvoke
}

// sccs returns the strongly connected components (Tarjan) of the graph
// over nodes whose edges succ lists, each as its member list. Visiting
// nodes and successors in a fixed order makes the result deterministic.
func sccs[N comparable](nodes []N, succ func(N) []N) [][]N {
	index := map[N]int{}
	low := map[N]int{}
	onStack := map[N]bool{}
	var stack []N
	var comps [][]N

	var strongconnect func(n N)
	strongconnect = func(n N) {
		index[n] = len(index)
		low[n] = index[n]
		stack = append(stack, n)
		onStack[n] = true
		for _, w := range succ(n) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				low[n] = min(low[n], low[w])
			} else if onStack[w] {
				low[n] = min(low[n], index[w])
			}
		}
		if low[n] == index[n] {
			var comp []N
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == n {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return comps
}

// CyclePath returns a shortest path of node names from `from`, through
// edge, back to `from`, staying inside comp. It renders the cycle for
// diagnostics: from → ... → from.
func (g *CallGraph) CyclePath(comp map[*FuncNode]bool, from *FuncNode, edge Edge) []string {
	// BFS from edge.To back to `from` inside the component.
	type step struct {
		node *FuncNode
		prev int
	}
	steps := []step{{node: edge.To, prev: -1}}
	seen := map[*FuncNode]bool{edge.To: true}
	goal := -1
	for i := 0; i < len(steps) && goal < 0; i++ {
		cur := steps[i]
		if cur.node == from {
			goal = i
			break
		}
		for _, e := range cur.node.Edges {
			if !comp[e.To] || seen[e.To] {
				continue
			}
			seen[e.To] = true
			steps = append(steps, step{node: e.To, prev: i})
			if e.To == from {
				goal = len(steps) - 1
			}
		}
	}
	if goal < 0 {
		return []string{from.name, edge.To.name, "..."}
	}
	var rev []string
	for i := goal; i >= 0; i = steps[i].prev {
		rev = append(rev, steps[i].node.name)
	}
	path := []string{from.name}
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

// funcDisplayName renders a declared function for diagnostics:
// "pkg.Func" or "pkg.(*Recv).Method".
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			path = path[i+1:]
		}
		pkg = path + "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		name := types.TypeString(recv, func(*types.Package) string { return "" })
		return fmt.Sprintf("%s(%s).%s", pkg, name, fn.Name())
	}
	return pkg + fn.Name()
}

// sortNodes orders nodes by source position for deterministic output.
func (g *CallGraph) sortNodes(nodes []*FuncNode) {
	sort.Slice(nodes, func(i, j int) bool {
		a, b := g.fset.Position(nodePos(nodes[i])), g.fset.Position(nodePos(nodes[j]))
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
}

func nodePos(n *FuncNode) token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	if n.Body != nil {
		return n.Body.Pos()
	}
	return token.NoPos
}

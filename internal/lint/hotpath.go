package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// HotPath enforces per-function performance contracts: annotated hot
// functions carry allocation, lock and blocking budgets that are checked
// statically against everything reachable through the call graph.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "The ORB invoke path and the trader's Select were hand-tuned to a " +
		"handful of allocations and zero locks (DESIGN.md §13), but only a " +
		"runtime benchmark gate defends that work — a regression hides until " +
		"a bench run notices. This analyzer makes the contract static: a " +
		"function annotated //lint:hotpath alloc=N locks=N block=N in its " +
		"doc comment becomes a root, and a fixpoint over the call graph's " +
		"static and closure edges (RPC edges excluded — the remote side runs " +
		"on its own goroutine) collects every may-allocate site (composite " +
		"literals, new/make, append growth, string<->[]byte conversions, " +
		"interface boxing, fmt/errors calls, map writes, closures, string " +
		"concatenation), every mutex acquisition, and every blocking " +
		"operation reachable from the root. A budget names the number of " +
		"distinct sites allowed (omitted budgets default to 0); exceeding it " +
		"reports every unsuppressed site with the call chain from the root " +
		"and the offending expression's position. Deliberate sites — " +
		"pool-miss slow paths, error construction — are excluded with " +
		"//lint:alloc <reason> on the site's line, and a deliberate slow-path " +
		"function (the constraint compiler behind the compile cache, say) is " +
		"marked //lint:coldpath <reason> in its doc comment, which stops the " +
		"traversal at its boundary.",
	Run: runHotPath,
}

// hotBudget is one parsed //lint:hotpath annotation.
type hotBudget struct {
	alloc, locks, block int
	pos                 token.Pos
}

// allocSite is one may-allocate expression.
type allocSite struct {
	pos   token.Pos
	class string
}

// lockSite is one mutex acquisition.
type lockSite struct {
	pos  token.Pos
	name string
}

// hotSites caches the per-function site scan shared across roots.
type hotSites struct {
	allocs []allocSite
	locks  []lockSite
}

func runHotPath(pass *Pass) {
	g := pass.Graph
	roots := hotpathRootNodes(pass)
	if len(roots) == 0 {
		return
	}
	cold := coldpathNodes(pass)
	allow := collectAllocAllows(pass.Pkgs)

	cache := map[*FuncNode]*hotSites{}
	sitesOf := func(n *FuncNode) *hotSites {
		if s, ok := cache[n]; ok {
			return s
		}
		s := scanHotSites(n)
		cache[n] = s
		return s
	}

	// Deterministic root order: source position of the annotation.
	var rootNodes []*FuncNode
	for n := range roots {
		rootNodes = append(rootNodes, n)
	}
	g.sortNodes(rootNodes)

	for _, root := range rootNodes {
		budget := roots[root]
		visited, parent := reachableFrom(root, cold)

		var allocs []allocSite
		var locks []lockSite
		var blocks []blockingOp
		owner := map[token.Pos]*FuncNode{}
		for _, n := range visited {
			if n.Body == nil {
				continue
			}
			s := sitesOf(n)
			for _, a := range s.allocs {
				if allow.suppressed(pass.Fset, a.pos) {
					continue
				}
				allocs = append(allocs, a)
				owner[a.pos] = n
			}
			for _, l := range s.locks {
				locks = append(locks, l)
				owner[l.pos] = n
			}
			for _, b := range n.blocking {
				blocks = append(blocks, b)
				owner[b.pos] = n
			}
		}
		sort.Slice(allocs, func(i, j int) bool { return allocs[i].pos < allocs[j].pos })
		sort.Slice(locks, func(i, j int) bool { return locks[i].pos < locks[j].pos })
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].pos < blocks[j].pos })

		if len(allocs) > budget.alloc {
			for _, a := range allocs {
				pass.Reportf(a.pos,
					"hotpath %s: alloc budget exceeded (%d sites, budget alloc=%d): %s%s",
					root.Name(), len(allocs), budget.alloc, a.class,
					hotChain(root, owner[a.pos], parent))
			}
		}
		if len(locks) > budget.locks {
			for _, l := range locks {
				pass.Reportf(l.pos,
					"hotpath %s: lock budget exceeded (%d sites, budget locks=%d): acquires %s%s",
					root.Name(), len(locks), budget.locks, l.name,
					hotChain(root, owner[l.pos], parent))
			}
		}
		if len(blocks) > budget.block {
			for _, b := range blocks {
				pass.Reportf(b.pos,
					"hotpath %s: block budget exceeded (%d sites, budget block=%d): %s%s",
					root.Name(), len(blocks), budget.block, b.desc,
					hotChain(root, owner[b.pos], parent))
			}
		}
	}
}

// reachableFrom walks static and closure edges from root, stopping at
// //lint:coldpath boundaries, and returns the visited nodes (root included)
// plus the BFS parent map used to render call chains.
func reachableFrom(root *FuncNode, cold map[*FuncNode]bool) ([]*FuncNode, map[*FuncNode]*FuncNode) {
	visited := []*FuncNode{root}
	seen := map[*FuncNode]bool{root: true}
	parent := map[*FuncNode]*FuncNode{}
	for i := 0; i < len(visited); i++ {
		n := visited[i]
		for _, e := range n.Edges {
			if e.Kind == EdgeRPC || seen[e.To] || cold[e.To] {
				continue
			}
			seen[e.To] = true
			parent[e.To] = n
			visited = append(visited, e.To)
		}
	}
	return visited, parent
}

// hotChain renders " (via root -> ... -> holder)" for sites outside the
// root's own body, empty for direct sites.
func hotChain(root, holder *FuncNode, parent map[*FuncNode]*FuncNode) string {
	if holder == nil || holder == root {
		return ""
	}
	var rev []string
	for cur := holder; cur != nil; cur = parent[cur] {
		rev = append(rev, cur.Name())
		if cur == root {
			break
		}
	}
	var chain []string
	for i := len(rev) - 1; i >= 0; i-- {
		chain = append(chain, rev[i])
	}
	return " (via " + strings.Join(chain, " -> ") + ")"
}

// hotpathRootNodes parses every //lint:hotpath annotation into its graph
// node. Malformed annotations are diagnostics.
func hotpathRootNodes(pass *Pass) map[*FuncNode]hotBudget {
	roots := map[*FuncNode]hotBudget{}
	forEachAnnotatedFunc(pass.Pkgs, "lint:hotpath", func(pkg *Package, fd *ast.FuncDecl, c *ast.Comment, payload string) {
		b, err := parseHotBudget(payload)
		if err != nil {
			pass.Reportf(fd.Pos(), "malformed //lint:hotpath annotation: %v", err)
			return
		}
		b.pos = c.Pos()
		obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
		if obj == nil {
			return
		}
		if n := pass.Graph.NodeOf(obj); n != nil {
			roots[n] = b
		}
	})
	return roots
}

// coldpathNodes parses //lint:coldpath annotations: deliberate slow-path
// functions the hotpath traversal must not descend into.
func coldpathNodes(pass *Pass) map[*FuncNode]bool {
	cold := map[*FuncNode]bool{}
	forEachAnnotatedFunc(pass.Pkgs, "lint:coldpath", func(pkg *Package, fd *ast.FuncDecl, c *ast.Comment, payload string) {
		obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
		if obj == nil {
			return
		}
		if n := pass.Graph.NodeOf(obj); n != nil {
			cold[n] = true
		}
	})
	return cold
}

// forEachAnnotatedFunc invokes fn for every function declaration whose doc
// comment carries the given //lint:<directive>, passing the directive's
// payload (the text after the directive word).
func forEachAnnotatedFunc(pkgs []*Package, directive string, fn func(*Package, *ast.FuncDecl, *ast.Comment, string)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if text != directive && !strings.HasPrefix(text, directive+" ") {
						continue
					}
					fn(pkg, fd, c, strings.TrimSpace(strings.TrimPrefix(text, directive)))
				}
			}
		}
	}
}

// parseHotBudget parses "alloc=N locks=N block=N" (each field optional,
// defaulting to 0; any order).
func parseHotBudget(payload string) (hotBudget, error) {
	var b hotBudget
	for _, field := range strings.Fields(payload) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return b, fmt.Errorf("%q is not key=N", field)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return b, fmt.Errorf("%q is not a non-negative count", field)
		}
		switch key {
		case "alloc":
			b.alloc = n
		case "locks":
			b.locks = n
		case "block":
			b.block = n
		default:
			return b, fmt.Errorf("unknown budget %q (want alloc, locks or block)", key)
		}
	}
	return b, nil
}

// allocAllowSet records //lint:alloc suppression lines per file.
type allocAllowSet map[string]map[int]bool

// suppressed reports whether pos carries a //lint:alloc on its line or the
// line directly above.
func (s allocAllowSet) suppressed(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := s[p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

// collectAllocAllows scans for //lint:alloc <reason> directives, the
// dedicated suppression for deliberate allocation sites on hot paths.
func collectAllocAllows(pkgs []*Package) allocAllowSet {
	s := allocAllowSet{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if text != "lint:alloc" && !strings.HasPrefix(text, "lint:alloc ") {
						continue
					}
					p := pkg.Fset.Position(c.Pos())
					if s[p.Filename] == nil {
						s[p.Filename] = map[int]bool{}
					}
					s[p.Filename][p.Line] = true
				}
			}
		}
	}
	return s
}

// scanHotSites collects the may-allocate and lock-acquisition sites in one
// function body. Nested function literals are separate graph nodes reached
// through closure edges, so the walk does not descend into them — but the
// literal itself is a closure-allocation site in its definer.
func scanHotSites(n *FuncNode) *hotSites {
	s := &hotSites{}
	if n.Body == nil {
		return s
	}
	info := n.Pkg.TypesInfo
	addrTaken := map[*ast.CompositeLit]bool{}
	ast.Inspect(n.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			s.allocs = append(s.allocs, allocSite{pos: e.Pos(), class: "closure"})
			return false
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					addrTaken[cl] = true
					s.allocs = append(s.allocs, allocSite{pos: e.Pos(), class: "composite literal"})
				}
			}
		case *ast.CompositeLit:
			if addrTaken[e] {
				return true
			}
			if t := info.TypeOf(e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					s.allocs = append(s.allocs, allocSite{pos: e.Pos(), class: "composite literal"})
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && tv.Value == nil && isStringType(tv.Type) {
					s.allocs = append(s.allocs, allocSite{pos: e.Pos(), class: "string concatenation"})
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.TypeOf(idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							s.allocs = append(s.allocs, allocSite{pos: idx.Pos(), class: "map write"})
						}
					}
				}
			}
		case *ast.CallExpr:
			s.scanHotCall(n, info, e)
		}
		return true
	})
	return s
}

// scanHotCall classifies one call expression: builtin allocators, append
// growth, conversions, boxing, fmt/errors construction, lock acquisition.
func (s *hotSites) scanHotCall(n *FuncNode, info *types.Info, call *ast.CallExpr) {
	// Lock acquisition.
	if recvExpr, _, op, ok := mutexOp(info, call); ok {
		if op == "Lock" || op == "RLock" {
			s.locks = append(s.locks, lockSite{pos: call.Pos(), name: lockCanon(n, recvExpr)})
		}
		return
	}

	// Type conversion: string<->[]byte and interface boxing.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		switch {
		case isStringByteConv(dst, src):
			s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "string/[]byte conversion"})
		case isBoxingConv(dst, src):
			// A conversion of an untyped constant (any(nil), error(nil)) does
			// not box at run time.
			if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
				s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "interface boxing"})
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "new"})
			case "make":
				s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "make"})
			case "append":
				s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "append growth"})
			}
			return
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt", "errors":
		s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "fmt/errors call"})
	case "encoding/binary":
		// binary.BigEndian.AppendUint32 and friends grow the destination
		// slice exactly like the append builtin.
		if strings.HasPrefix(fn.Name(), "Append") {
			s.allocs = append(s.allocs, allocSite{pos: call.Pos(), class: "append growth"})
		}
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConv reports a string<->[]byte/[]rune conversion.
func isStringByteConv(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isBoxingConv reports a conversion of a concrete value to an interface
// type, which heap-allocates for any non-pointer-shaped value.
func isBoxingConv(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	_, srcIface := src.Underlying().(*types.Interface)
	return !srcIface
}

// hotpathRoots returns the display names of every function carrying a
// well-formed //lint:hotpath annotation, sorted. Tests use it to assert
// that the intended hot functions are really in the root set (a typo in an
// annotation must not silently drop a contract).
func hotpathRoots(pkgs []*Package) []string {
	var names []string
	forEachAnnotatedFunc(pkgs, "lint:hotpath", func(pkg *Package, fd *ast.FuncDecl, c *ast.Comment, payload string) {
		if _, err := parseHotBudget(payload); err != nil {
			return
		}
		if obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
			names = append(names, funcDisplayName(obj))
		}
	})
	sort.Strings(names)
	return names
}

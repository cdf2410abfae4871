package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags map iteration whose order can leak into protocol output.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "Go randomizes map iteration order, so a `range` over a map that " +
		"feeds an ordering-sensitive sink — wire encoding, a bench table " +
		"row, a remote invocation, or a slice accumulated without a " +
		"subsequent sort — silently breaks the deterministic simulator and " +
		"byte-stable experiment output every run depends on. The analyzer " +
		"checks every library package (main packages are deployment entry " +
		"points and exempt), using the call graph to see sinks reached " +
		"through helpers (a loop body calling a function that transitively " +
		"issues an Invoke counts as an RPC sink). Iterate `sortedKeys(m)` " +
		"instead, sort the accumulated slice before use, or annotate a " +
		"deliberately order-insensitive loop with //lint:ordered <reason>.",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, node := range pass.Graph.Nodes {
		if node.Body == nil || node.Pkg.Types.Name() == "main" {
			continue
		}
		inspectOwn(node.Body, func(n ast.Node) {
			switch s := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, node, s)
			case *ast.CallExpr:
				checkReflectIteration(pass, node, s)
			}
		})
	}
}

// inspectOwn walks body without descending into nested function literals:
// those are separate call-graph nodes and are visited on their own.
func inspectOwn(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// checkMapRange reports rng when it iterates a map and its body reaches an
// ordering-sensitive sink.
func checkMapRange(pass *Pass, node *FuncNode, rng *ast.RangeStmt) {
	info := node.Pkg.TypesInfo
	t := info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if sink := orderSink(pass, node, rng); sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order %s; iterate sorted keys or annotate with //lint:ordered",
			sink)
	}
}

// orderSink classifies the first ordering-sensitive sink in the loop body,
// returning a description or "".
func orderSink(pass *Pass, node *FuncNode, rng *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if desc := callSink(pass, node, s); desc != "" {
				sink = desc
				return false
			}
		case *ast.AssignStmt:
			if name, ok := unsortedAppend(node, rng, s); ok {
				sink = "leaks into " + name + ", which is never sorted before use"
				return false
			}
		}
		return true
	})
	return sink
}

// callSink classifies one call inside a map-range body.
func callSink(pass *Pass, node *FuncNode, call *ast.CallExpr) string {
	info := node.Pkg.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	// Remote invocations: direct, or transitively through a repo helper.
	if desc, rpc := directBlockingDesc(info, call); rpc {
		return "determines the order of remote invocations (" + desc + ")"
	}
	if target := pass.Graph.NodeOf(fn); target != nil && pass.Graph.MayInvoke(target) {
		return "determines the order of remote invocations (via " + target.Name() + ")"
	}
	// Wire encoding: any call that touches an orb.Encoder.
	if usesEncoder(fn) {
		return "feeds wire encoding (" + fn.Name() + ")"
	}
	// Bench table rows.
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil && fn.Name() == "AddRow" {
		if named := namedType(sig.Recv().Type()); named != nil && named.Obj().Name() == "Table" {
			return "emits bench table rows (AddRow)"
		}
	}
	return ""
}

// usesEncoder reports whether fn's receiver or any parameter is an
// *orb.Encoder — writing to one inside a map range serializes in map order.
func usesEncoder(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	if recv := sig.Recv(); recv != nil && isOrbEncoder(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isOrbEncoder(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isOrbEncoder(t types.Type) bool {
	named := namedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == orbPkgPath && obj.Name() == "Encoder"
}

// unsortedAppend recognizes `x = append(x, ...)` inside a map-range where x
// is declared outside the loop and is not subsequently sorted within the
// enclosing function. Returns the variable name when it is a finding.
func unsortedAppend(node *FuncNode, rng *ast.RangeStmt, assign *ast.AssignStmt) (string, bool) {
	info := node.Pkg.TypesInfo
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		if i >= len(assign.Lhs) && len(assign.Lhs) != 1 {
			continue
		}
		lhs, ok := ast.Unparen(assign.Lhs[min(i, len(assign.Lhs)-1)]).(*ast.Ident)
		if !ok || lhs.Name == "_" {
			continue
		}
		obj, ok := info.Uses[lhs].(*types.Var)
		if !ok {
			if obj, ok = info.Defs[lhs].(*types.Var); !ok {
				continue
			}
		}
		// Accumulator declared inside the loop resets every iteration; its
		// order cannot leak out of one element's processing.
		if obj.Pos() > rng.Pos() && obj.Pos() < rng.End() {
			continue
		}
		if sortedLater(node, rng.End(), lhs.Name) {
			continue
		}
		return lhs.Name, true
	}
	return "", false
}

// sortedLater reports whether the enclosing function body contains, after
// pos, a sorting call mentioning the named variable: anything from the sort
// or slices packages, or a helper whose own name says it sorts (sortNodes,
// SortOffers, ...).
func sortedLater(node *FuncNode, pos token.Pos, name string) bool {
	found := false
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(node.Pkg.TypesInfo, call)
		if fn == nil {
			return true
		}
		sorts := strings.HasPrefix(strings.ToLower(fn.Name()), "sort")
		if p := ""; !sorts {
			if fn.Pkg() != nil {
				p = fn.Pkg().Path()
			}
			if p != "sort" && p != "slices" {
				return true
			}
		}
		for _, arg := range call.Args {
			if rendered := types.ExprString(arg); rendered == name ||
				strings.Contains(rendered, name+")") || strings.Contains(rendered, "("+name) {
				found = true
			}
		}
		return true
	})
	return found
}

// checkReflectIteration flags reflect-based map iteration, which is just as
// unordered as a range and invisible to the range check.
func checkReflectIteration(pass *Pass, node *FuncNode, call *ast.CallExpr) {
	fn := calleeFunc(node.Pkg.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "reflect" {
		return
	}
	if fn.Name() == "MapRange" || fn.Name() == "MapKeys" {
		pass.Reportf(call.Pos(),
			"reflect.%s iterates a map in random order; sort the keys before use or annotate with //lint:ordered",
			fn.Name())
	}
}

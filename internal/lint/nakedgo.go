package lint

import (
	"go/ast"
	"go/types"
)

// NakedGo requires every spawned goroutine to be tracked by a lifecycle.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc: "Every `go` statement in non-test code must be tracked so daemons " +
		"shut down cleanly: either a sync.WaitGroup.Add appears among the " +
		"preceding statements of the same block, or the spawned function " +
		"itself signals completion with a top-level `defer wg.Done()` or " +
		"`defer close(ch)` lifecycle. Untracked goroutines outlive Close/Stop " +
		"and leak out of tests and long-lived LRM/GRM processes.",
	Run: runNakedGo,
}

func runNakedGo(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch b := n.(type) {
				case *ast.BlockStmt:
					list = b.List
				case *ast.CaseClause:
					list = b.Body
				case *ast.CommClause:
					list = b.Body
				default:
					return true
				}
				for i, stmt := range list {
					g, ok := stmt.(*ast.GoStmt)
					if !ok {
						continue
					}
					if goTracked(pass.Graph, pkg.TypesInfo, g, list[:i]) {
						continue
					}
					pass.Reportf(g.Pos(), "untracked goroutine: spawn is not preceded by a "+
						"WaitGroup.Add and the spawned function has no completion lifecycle "+
						"(defer wg.Done() / defer close(ch))")
				}
				return true
			})
		}
	}
}

// goTracked reports whether the goroutine spawned by g is accounted for.
func goTracked(graph *CallGraph, info *types.Info, g *ast.GoStmt, preceding []ast.Stmt) bool {
	// A WaitGroup.Add in any preceding sibling statement covers the spawn.
	for _, stmt := range preceding {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Add" && waitGroupMethod(fn) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	// Otherwise the spawned function itself must signal completion.
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodySignalsCompletion(info, fun.Body)
	default:
		// Look through a `go s.loop()` spawn into loop's body.
		fn := calleeFunc(info, g.Call)
		if fn == nil {
			return false
		}
		node := graph.NodeOf(fn)
		if node == nil || node.Body == nil {
			return false
		}
		return bodySignalsCompletion(node.Pkg.TypesInfo, node.Body)
	}
}

// bodySignalsCompletion reports whether body contains a top-level
// `defer wg.Done()` or `defer close(ch)`.
func bodySignalsCompletion(info *types.Info, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		d, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(d.Call.Fun).(*ast.Ident); ok && id.Name == "close" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		if fn := calleeFunc(info, d.Call); fn != nil && fn.Name() == "Done" && waitGroupMethod(fn) {
			return true
		}
	}
	return false
}

// waitGroupMethod reports whether fn is a method of sync.WaitGroup.
func waitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isSyncType(sig.Recv().Type(), "WaitGroup")
}

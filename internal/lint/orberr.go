package lint

import (
	"go/ast"
	"go/types"
)

// orbErrPkgs are the ORB-layer packages whose error returns are protocol
// state: dropping one silently desynchronizes grid state.
var orbErrPkgs = map[string]bool{
	"integrade/internal/orb":      true,
	"integrade/internal/protocol": true,
}

// OrbErr forbids discarding the results of error-returning ORB-layer calls.
var OrbErr = &Analyzer{
	Name: "orberr",
	Doc: "Results of ORB invocations and of error-returning calls into the " +
		"ORB layer (packages orb and protocol: Invoke, marshal/unmarshal " +
		"helpers, typed protocol stubs) must not be discarded by using the " +
		"call as a bare statement. A failed invocation or decode that is " +
		"dropped on the floor silently desynchronizes grid state. Assigning " +
		"the error to _ is treated as an explicit, visible decision and is " +
		"allowed.",
	Run: runOrbErr,
}

func runOrbErr(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.TypesInfo, call)
				if fn == nil || !returnsError(fn) {
					return true
				}
				pkgPath := ""
				if fn.Pkg() != nil {
					pkgPath = fn.Pkg().Path()
				}
				switch {
				case fn.Name() == "Invoke":
					pass.Reportf(call.Pos(), "result of ORB invocation %s is discarded", fn.Name())
				case orbErrPkgs[pkgPath]:
					pass.Reportf(call.Pos(), "error result of %s.%s is discarded", pkgPath, fn.Name())
				}
				return true
			})
		}
	}
}

// returnsError reports whether fn's last result is of type error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

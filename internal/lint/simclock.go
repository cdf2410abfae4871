package lint

import (
	"go/ast"
	"go/types"
)

// simPkgPath is the package providing the Clock abstraction; it is the one
// place allowed to touch the time package's clock functions.
const simPkgPath = "integrade/internal/sim"

// simBanned are the time-package functions that read or block on the wall
// clock. Pure conversions and constructors (time.Date, time.Duration,
// time.Unix, time.Parse, ...) remain allowed.
var simBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// SimClock enforces clock injection in sim-driven packages.
var SimClock = &Analyzer{
	Name: "simclock",
	Doc: "A package that imports integrade/internal/sim is sim-driven: its " +
		"protocol logic must run identically under the virtual clock, so it " +
		"must take every timestamp, delay and timer through an injected " +
		"sim.Clock rather than time.Now/Sleep/After and friends. Main " +
		"packages (cmd/, examples/) are exempt: they are deployment entry " +
		"points that legitimately construct sim.RealClock and use wall time " +
		"for logging.",
	Run: runSimClock,
}

func runSimClock(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if simDriven(pkg.Types) {
			checkSimClock(pass, pkg)
		}
	}
}

// simDriven reports whether a library package imports sim, which makes it
// subject to the check.
func simDriven(pkg *types.Package) bool {
	if pkg.Name() == "main" || pkg.Path() == simPkgPath {
		return false
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == simPkgPath {
			return true
		}
	}
	return false
}

func checkSimClock(pass *Pass, pkg *Package) {
	for _, f := range pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
				// A method such as time.Time.After compares instants it is
				// given; only the package's functions read the clock.
				return true
			}
			if fn.Pkg().Path() == "time" && simBanned[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"sim-driven package uses wall clock time.%s; inject a sim.Clock instead",
					fn.Name())
			}
			return true
		})
	}
}

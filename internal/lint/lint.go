// Package lint implements InteGrade's custom static analyzers and the
// driver that runs them. The analyzers encode repo-specific correctness
// invariants that stock go vet cannot know about:
//
//   - simclock: sim-driven packages take time through sim.Clock, never the
//     time package directly;
//   - orberr: results of error-returning ORB-layer calls are not silently
//     discarded;
//   - nakedgo: every goroutine spawned in non-test code is tracked by a
//     WaitGroup or a lifecycle channel;
//   - rpccycle: no synchronous RPC can re-enter its own caller;
//   - maporder: map iteration order does not leak into wire encoding,
//     remote invocations or bench tables;
//   - locks: nothing that may block runs while a mutex is held, and every
//     lock nesting follows the declared //lint:lockorder hierarchy;
//   - hotpath: //lint:hotpath roots stay within their allocation, lock and
//     blocking budgets;
//   - cowstore: copy-on-write atomic.Pointer registries are written under
//     their declared writer mutex.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf) but is self-contained: packages are loaded offline through
// `go list -export` and type-checked with the standard library's gc
// export-data importer, so the linter needs no third-party dependencies.
// Every analyzer sees the whole loaded package set and one shared call
// graph.
//
// Findings can be suppressed with a justifying comment on the offending
// line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports diagnostics over the loaded package set via pass.Reportf.
	Run func(*Pass)
}

// Pass carries the whole loaded package set plus the shared call graph to
// an Analyzer.Run, mirroring go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *CallGraph

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// All returns the full set of InteGrade analyzers.
func All() []*Analyzer {
	return []*Analyzer{SimClock, OrbErr, NakedGo, RPCCycle, MapOrder, Locks, HotPath, CowStore}
}

// Run applies analyzers to pkgs, filters findings suppressed by
// //lint:allow comments, and returns the surviving diagnostics sorted by
// position. Each analyzer runs once over the whole set, and all of them
// share a single call graph.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	var diags []Diagnostic
	allowed := allowSet{}
	for _, pkg := range pkgs {
		collectAllows(pkg, allowed)
	}
	report := func(d Diagnostic) {
		if !allowed.suppresses(d) {
			diags = append(diags, d)
		}
	}
	graph := BuildCallGraph(pkgs)
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Graph:    graph,
			report:   report,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		// One analyzer can report distinct findings at one position (e.g.
		// locks, one per undocumented edge): the message tie-break keeps
		// the output byte-stable run to run.
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// allowSet maps file -> line -> analyzer names allowed on that line.
type allowSet map[string]map[int][]string

// suppresses reports whether d is covered by an allow comment on its own
// line or the line directly above.
func (s allowSet) suppresses(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// collectAllows scans a package's comments for //lint:allow directives and
// adds them to s. The dedicated //lint:ordered directive — documenting that
// a map iteration is intentionally order-insensitive or ordered by other
// means — is recorded as an allowance for the maporder analyzer.
func collectAllows(pkg *Package, s allowSet) {
	add := func(pos token.Position, name string) {
		if s[pos.Filename] == nil {
			s[pos.Filename] = map[int][]string{}
		}
		s[pos.Filename][pos.Line] = append(s[pos.Filename][pos.Line], name)
	}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				switch {
				case strings.HasPrefix(text, "lint:allow"):
					fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
					if len(fields) == 0 {
						continue
					}
					add(pkg.Fset.Position(c.Pos()), fields[0])
				case strings.HasPrefix(text, "lint:ordered"):
					add(pkg.Fset.Position(c.Pos()), "maporder")
				}
			}
		}
	}
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function values, builtins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := instantiated(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// instantiated is the function a call's Fun expression names, its type
// arguments dropped: f for f[T] and pkg.f[T, U] alike.
func instantiated(fun ast.Expr) ast.Expr {
	switch x := ast.Unparen(fun).(type) {
	case *ast.IndexExpr:
		return ast.Unparen(x.X)
	case *ast.IndexListExpr:
		return ast.Unparen(x.X)
	}
	return ast.Unparen(fun)
}

// namedType returns the named type underlying t, unwrapping pointers and
// aliases, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// isSyncType reports whether t is sync.<name> (possibly behind a pointer).
func isSyncType(t types.Type, name string) bool {
	named := namedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

package lint_test

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"integrade/internal/lint"
)

// allowListFile names the exported identifiers and unexported functions that
// only tests use on purpose, one per line with its reason.
const allowListFile = "testdata/testonly_exports.txt"

// wholePackageAllowed are the only packages the allow-list may name as a
// whole: test infrastructure, whose exports exist for other packages' tests.
var wholePackageAllowed = map[string]bool{
	"integrade/internal/chaos":         true,
	"integrade/internal/testutil/...":  true,
	"integrade/internal/lint/linttest": true,
}

// TestNoTestOnlyExports is the gate against code only tests reach: every
// exported package-level identifier and exported method of an internal/
// package, and every unexported package-level function and method with a
// body, must have a use in a non-test file of the module (cmd/, examples/
// and benchmark/ included), or an allow-list entry saying why a test needs
// it. A method that satisfies an interface counts as used. An allow-list
// entry that matches nothing fails too, so the list cannot outlive what it
// excuses.
//
// Objects are keyed by package path, receiver type name and name, not by
// identity: every importer sees its own copy of an imported object.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := loadModule(t)
	allow := readAllowList(t)
	used := usedKeys(pkgs)
	matched := map[string]bool{}
	tracked := exportedObjects(pkgs)
	maps.Copy(tracked, unexportedFuncs(pkgs))
	for _, key := range slices.Sorted(maps.Keys(tracked)) {
		if used[key] {
			continue
		}
		if entry, ok := allowedBy(allow, key); ok {
			matched[entry] = true
			continue
		}
		t.Errorf("%s: only tests use %s: delete it or allow-list it in %s with a reason", tracked[key], key, allowListFile)
	}
	for _, entry := range slices.Sorted(maps.Keys(allow)) {
		if !matched[entry] {
			t.Errorf("%s: allow-list entry %s matches nothing only tests use; remove it", allowListFile, entry)
		}
	}
}

// readAllowList returns the allow-list's entries, of which only test
// infrastructure may name a whole package.
func readAllowList(t *testing.T) map[string]bool {
	t.Helper()
	allow := readKeyList(t, allowListFile)
	for _, key := range slices.Sorted(maps.Keys(allow)) {
		if isPackageEntry(key) && !wholePackageAllowed[key] {
			t.Errorf("%s: %s allow-lists a whole package; only test infrastructure may be", allowListFile, key)
		}
	}
	return allow
}

// readKeyList returns the keys a list file names. Each line is a key and a
// reason; blank lines and lines starting with # are skipped.
func readKeyList(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: entry %s has no reason", file, key)
		}
		if allow[key] {
			t.Errorf("%s: duplicate entry %s", file, key)
		}
		allow[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// isPackageEntry reports whether an allow-list key names a package (or a
// package tree, with a /... suffix) rather than one identifier.
func isPackageEntry(key string) bool {
	return !strings.Contains(key[strings.LastIndex(key, "/")+1:], ".") || strings.HasSuffix(key, "/...")
}

// allowedBy returns the allow-list entry that covers key: the key itself,
// its package, or a package tree containing it.
func allowedBy(allow map[string]bool, key string) (string, bool) {
	if allow[key] {
		return key, true
	}
	for entry := range allow {
		pkg, tree := strings.CutSuffix(entry, "/...")
		if isPackageEntry(entry) && (strings.HasPrefix(key, pkg+".") || tree && strings.HasPrefix(key, pkg+"/")) {
			return entry, true
		}
	}
	return "", false
}

// benchOnlyFile names the exported identifiers kept only for benchmark/,
// which a change claiming a gain may not edit, one per line with its reason.
const benchOnlyFile = "testdata/bench_only_api.txt"

// benchmarkPkg is the one package outside its declaring one whose non-test
// files may use an identifier benchOnlyFile lists.
const benchmarkPkg = "integrade/benchmark"

// TestBenchOnlyAPIStaysThere is the gate that keeps what benchmark/ pins from
// spreading: a non-test file that uses an identifier benchOnlyFile lists fails
// unless it is in the identifier's own package or in benchmark/, so the next
// change to benchmark/ can delete it. An entry that names no exported
// identifier fails too.
func TestBenchOnlyAPIStaysThere(t *testing.T) {
	pkgs := loadModule(t)
	listed := readKeyList(t, benchOnlyFile)
	exported := exportedObjects(pkgs)
	for _, key := range slices.Sorted(maps.Keys(listed)) {
		if _, ok := exported[key]; !ok {
			t.Errorf("%s: entry %s names no exported identifier; remove it", benchOnlyFile, key)
		}
	}
	for _, p := range pkgs {
		if p.PkgPath == benchmarkPkg {
			continue
		}
		for id, obj := range p.TypesInfo.Uses {
			if key := objectKey(obj); listed[key] && obj.Pkg() != p.Types {
				t.Errorf("%s: %s uses %s, which only benchmark/ may (%s)", relPosition(p, id.Pos()), p.PkgPath, key, benchOnlyFile)
			}
		}
	}
}

func isInternal(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), "integrade/internal/")
}

// objectKey names obj by package path, receiver type name and name, or
// returns "" for an object the gate does not track: a local, a field, or
// anything outside internal/.
func objectKey(obj types.Object) string {
	if !isInternal(obj.Pkg()) {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			name := receiverName(recv.Type())
			if name == "" {
				return ""
			}
			return fn.Pkg().Path() + "." + name + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverName is the name of a method's receiver type, through a pointer
// and any instantiation.
func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		return t.Origin().Obj().Name()
	}
	return ""
}

// moduleRoot is the directory lint.Load reads the module from, as the test
// runs in internal/lint.
var moduleRoot, _ = filepath.Abs("../..")

// relPosition is pos in p, its file named relative to the module root.
func relPosition(p *lint.Package, pos token.Pos) token.Position {
	position := p.Fset.Position(pos)
	if rel, err := filepath.Rel(moduleRoot, position.Filename); err == nil {
		position.Filename = rel
	}
	return position
}

// exportedObjects maps the key of every exported package-level identifier
// and exported method declared in the module's internal/ packages to its
// position.
func exportedObjects(pkgs []*lint.Package) map[string]token.Position {
	keys := map[string]token.Position{}
	for _, p := range pkgs {
		if !isInternal(p.Types) {
			continue
		}
		add := func(key string, obj types.Object) { keys[key] = relPosition(p, obj.Pos()) }
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(objectKey(obj), obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						add(objectKey(m), m)
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(objectKey(m), m)
				}
			}
		}
	}
	return keys
}

// unexportedFuncs maps the key of every unexported package-level function
// and method with a body declared in the module's internal/ packages to its
// position.
func unexportedFuncs(pkgs []*lint.Package) map[string]token.Position {
	keys := map[string]token.Position{}
	for _, p := range pkgs {
		if !isInternal(p.Types) {
			continue
		}
		for _, f := range p.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.IsExported() || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				obj := p.TypesInfo.Defs[fd.Name]
				if key := objectKey(obj); key != "" {
					keys[key] = relPosition(p, obj.Pos())
				}
			}
		}
	}
	return keys
}

// usedKeys returns the keys of every internal/ object a non-test file uses:
// each identifier's use and each selection, plus every method that satisfies
// an interface the module can see or follows the errors package's Is, As and
// Unwrap conventions, since those are called without being named.
func usedKeys(pkgs []*lint.Package) map[string]bool {
	used := map[string]bool{}
	mark := func(obj types.Object) {
		if k := objectKey(obj); k != "" {
			used[k] = true
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses {
			mark(obj)
		}
		for _, sel := range p.TypesInfo.Selections {
			mark(sel.Obj())
		}
	}

	ifaces := visibleInterfaces(pkgs)
	for _, p := range pkgs {
		if !isInternal(p.Types) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for _, iface := range ifaces {
				if satisfies(mset, iface) {
					for i := 0; i < iface.NumMethods(); i++ {
						m := iface.Method(i)
						mark(mset.Lookup(m.Pkg(), m.Name()).Obj())
					}
				}
			}
			for _, conv := range []string{"Is", "As", "Unwrap"} {
				if sel := mset.Lookup(nil, conv); sel != nil {
					mark(sel.Obj())
				}
			}
		}
	}
	return used
}

// visibleInterfaces returns every non-empty, non-generic interface the
// module can see: those its packages declare or spell out as a literal,
// those of everything they import, and the universe's error.
func visibleInterfaces(pkgs []*lint.Package) []*types.Interface {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if ok && !seen[iface] && iface.NumMethods() > 0 && iface.IsMethodSet() {
			seen[iface] = true
			ifaces = append(ifaces, iface)
		}
	}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	// A loaded package is read from its source, which holds the unexported
	// interfaces that its export data, seen by importers, leaves out.
	visited := map[string]bool{}
	for _, p := range pkgs {
		visited[p.PkgPath] = true
		addScope(p.Types.Scope())
		for _, tv := range p.TypesInfo.Types {
			add(tv.Type)
		}
	}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !visited[imp.Path()] {
				visited[imp.Path()] = true
				addScope(imp.Scope())
				visit(imp)
			}
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return ifaces
}

// satisfies reports whether a method set has every method of iface with the
// same signature. Signatures are compared as strings, since an interface
// and a type seen from different packages hold different copies of the
// types they mention.
func satisfies(mset *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		sel := mset.Lookup(want.Pkg(), want.Name())
		if sel == nil {
			return false
		}
		if signature(sel.Obj().Type()) != signature(want.Type()) {
			return false
		}
	}
	return true
}

// signature renders a method's parameter and result types without their
// names, qualified by package path.
func signature(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

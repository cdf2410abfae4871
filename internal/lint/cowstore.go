package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// CowStore checks the copy-on-write discipline around atomic.Pointer
// registries: snapshots are immutable, writers copy-then-swap under their
// declared mutex.
var CowStore = &Analyzer{
	Name: "cowstore",
	Doc: "The ORB's hot-path registries (OpMux operation tables, Adapter " +
		"servant tables) are copy-on-write atomic.Pointer snapshots; " +
		"Loopback's bindings are a sync.Map, outside this check. Readers " +
		"do one atomic Load and never lock, writers copy the snapshot, " +
		"mutate the copy and Store it while holding the declared writer " +
		"mutex. The pattern is only safe if four rules " +
		"hold, and each is easy to break silently. This analyzer checks, for " +
		"every struct field of type atomic.Pointer[T]: (1) no mutation " +
		"through a Load()ed snapshot — a map/slice-element or field write " +
		"whose base is the loaded pointer, or a shallow copy whose " +
		"reference-typed field was not refreshed before the write, races " +
		"every concurrent reader; (2) no Store of the old snapshot pointer " +
		"itself — publishing the value just loaded means the \"copy\" step " +
		"was skipped; (3) every Load→Store read-modify-write sequence must " +
		"run under the writer mutex declared via //lint:guards <field> on " +
		"the mutex field (or be a CompareAndSwap loop) — otherwise two " +
		"writers interleave and one update vanishes; (4) an atomic Store into " +
		"an element of a slice reached through the Load()ed snapshot of a " +
		"guarded field — a snapshot whose membership is copy-on-write but " +
		"whose slots are updated in place — is a write like the swap, and " +
		"needs the same mutex. Malformed //lint:guards lists (naming a field " +
		"the struct does not have) are diagnostics too.",
	Run: runCowStore,
}

// cowField identifies one atomic.Pointer field across the source/export-data
// object split: pkgpath.Type.field.
type cowField string

// cowRegistry is the repo-wide inventory of atomic.Pointer fields and their
// declared writer mutexes.
type cowRegistry struct {
	fields map[cowField]bool
	// guard maps an atomic.Pointer field to the name of the sibling mutex
	// field declared (via //lint:guards) to serialize its writers.
	guard map[cowField]string
}

func runCowStore(pass *Pass) {
	reg := collectCowFields(pass)
	if len(reg.fields) == 0 {
		return
	}
	for _, pkg := range pass.Pkgs {
		checkCowMutations(pass, pkg, reg)
		checkCowRMW(pass, pkg, reg)
	}
}

// collectCowFields scans every struct declaration for atomic.Pointer fields
// and //lint:guards declarations on sibling sync.Mutex/RWMutex fields.
func collectCowFields(pass *Pass) *cowRegistry {
	reg := &cowRegistry{fields: map[cowField]bool{}, guard: map[cowField]string{}}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				fieldNames := map[string]bool{}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fieldNames[name.Name] = true
					}
				}
				for _, fld := range st.Fields.List {
					if len(fld.Names) == 0 {
						continue
					}
					if isAtomicPointer(pkg.TypesInfo.TypeOf(fld.Type)) {
						for _, name := range fld.Names {
							reg.fields[cowKey(pkg.PkgPath, ts.Name.Name, name.Name)] = true
						}
					}
					payload, ok := guardsDirective(fld)
					if !ok {
						continue
					}
					if !isSyncType(pkg.TypesInfo.TypeOf(fld.Type), "Mutex") &&
						!isSyncType(pkg.TypesInfo.TypeOf(fld.Type), "RWMutex") {
						pass.Reportf(fld.Pos(), "//lint:guards on non-mutex field %s", fld.Names[0].Name)
						continue
					}
					for _, guarded := range strings.Split(payload, ",") {
						guarded = strings.TrimSpace(guarded)
						if guarded == "" {
							continue
						}
						if !fieldNames[guarded] {
							pass.Reportf(fld.Pos(),
								"//lint:guards names %q, but struct %s has no such field", guarded, ts.Name.Name)
							continue
						}
						reg.guard[cowKey(pkg.PkgPath, ts.Name.Name, guarded)] = fld.Names[0].Name
					}
				}
				return true
			})
		}
	}
	return reg
}

// guardsDirective extracts a //lint:guards payload from a field's doc or
// trailing comment.
func guardsDirective(fld *ast.Field) (payload string, ok bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "lint:guards") {
				return strings.TrimSpace(strings.TrimPrefix(text, "lint:guards")), true
			}
		}
	}
	return "", false
}

func cowKey(pkgPath, typeName, fieldName string) cowField {
	return cowField(pkgPath + "." + typeName + "." + fieldName)
}

// isAtomicPointer reports whether t is sync/atomic.Pointer[T].
func isAtomicPointer(t types.Type) bool {
	named := namedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// atomicFieldOp recognizes call as <base>.<field>.<method>(...) on a
// registered atomic.Pointer field and returns the field key, the printed
// base expression and the method name.
func atomicFieldOp(info *types.Info, reg *cowRegistry, call *ast.CallExpr) (key cowField, base string, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	switch sel.Sel.Name {
	case "Load", "Store", "Swap", "CompareAndSwap":
	default:
		return "", "", "", false
	}
	fieldSel, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	selection, hasSel := info.Selections[fieldSel]
	if !hasSel || selection.Kind() != types.FieldVal {
		return "", "", "", false
	}
	owner := namedType(info.TypeOf(fieldSel.X))
	if owner == nil || owner.Obj().Pkg() == nil {
		return "", "", "", false
	}
	k := cowKey(owner.Obj().Pkg().Path(), owner.Obj().Name(), selection.Obj().Name())
	if !reg.fields[k] {
		return "", "", "", false
	}
	return k, types.ExprString(fieldSel.X), sel.Sel.Name, true
}

// snapInfo tracks one local variable holding (a copy of) a loaded snapshot.
type snapInfo struct {
	key cowField
	// deref means the variable holds *Load() — a value copy whose
	// reference-typed fields still alias the snapshot until refreshed.
	deref bool
	// refreshed records fields of a deref copy that were re-assigned whole
	// (e.g. next.m = make(...)) and are therefore safe to mutate.
	refreshed map[string]bool
}

// checkCowMutations walks every function body tracking snapshot-derived
// variables and flags writes that reach the shared snapshot.
func checkCowMutations(pass *Pass, pkg *Package, reg *cowRegistry) {
	info := pkg.TypesInfo
	for _, f := range pkg.Syntax {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			snap := map[*types.Var]*snapInfo{}

			// matchLoad returns the field key if e is <base>.<field>.Load().
			matchLoad := func(e ast.Expr) (cowField, bool) {
				call, ok := ast.Unparen(e).(*ast.CallExpr)
				if !ok {
					return "", false
				}
				key, _, method, ok := atomicFieldOp(info, reg, call)
				if !ok || method != "Load" {
					return "", false
				}
				return key, true
			}
			// snapOf resolves e to a tracked snapshot variable.
			snapOf := func(e ast.Expr) *snapInfo {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					return nil
				}
				v, _ := info.Uses[id].(*types.Var)
				if v == nil {
					return nil
				}
				return snap[v]
			}
			// defVar resolves an assignment LHS identifier.
			defVar := func(e ast.Expr) *types.Var {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					return nil
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				v, _ := obj.(*types.Var)
				return v
			}

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					// Writes first: the LHS is evaluated against the state
					// before this statement's own bindings take effect.
					for _, lhs := range s.Lhs {
						checkCowWrite(pass, info, snap, snapOf, matchLoad, lhs)
					}
					if len(s.Lhs) != len(s.Rhs) {
						return true
					}
					for i, rhs := range s.Rhs {
						v := defVar(s.Lhs[i])
						if v == nil {
							continue
						}
						switch {
						case func() bool { _, ok := matchLoad(rhs); return ok }():
							key, _ := matchLoad(rhs)
							snap[v] = &snapInfo{key: key}
						case isStar(rhs):
							inner := ast.Unparen(ast.Unparen(rhs).(*ast.StarExpr).X)
							if key, ok := matchLoad(inner); ok {
								snap[v] = &snapInfo{key: key, deref: true, refreshed: map[string]bool{}}
							} else if sv := snapOf(inner); sv != nil && !sv.deref {
								snap[v] = &snapInfo{key: sv.key, deref: true, refreshed: map[string]bool{}}
							} else {
								delete(snap, v)
							}
						case snapOf(rhs) != nil:
							sv := snapOf(rhs)
							cp := *sv
							snap[v] = &cp
						default:
							// Reassigned to something unrelated: the variable
							// no longer aliases the snapshot. A whole-field
							// refresh (next.m = make(...)) is handled by
							// checkCowWrite before this loop runs.
							delete(snap, v)
						}
					}
				case *ast.IncDecStmt:
					checkCowWrite(pass, info, snap, snapOf, matchLoad, s.X)
				case *ast.CallExpr:
					key, _, method, ok := atomicFieldOp(info, reg, s)
					if !ok || method != "Store" && method != "Swap" || len(s.Args) == 0 {
						return true
					}
					arg := s.Args[len(s.Args)-1]
					if sv := snapOf(arg); sv != nil && !sv.deref && sv.key == key {
						pass.Reportf(s.Pos(),
							"cowstore: %s of the pointer just Load()ed from %s — the copy step was skipped, readers of the old snapshot see the mutations",
							method, key)
					} else if k2, ok := matchLoad(arg); ok && k2 == key {
						pass.Reportf(s.Pos(),
							"cowstore: %s of the pointer just Load()ed from %s — the copy step was skipped, readers of the old snapshot see the mutations",
							method, key)
					}
				}
				return true
			})
		}
	}
}

// isStar reports whether e is a *X dereference expression.
func isStar(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.StarExpr)
	return ok
}

// checkCowWrite flags an assignment target that mutates state reachable
// from a loaded snapshot.
func checkCowWrite(pass *Pass, info *types.Info,
	snap map[*types.Var]*snapInfo,
	snapOf func(ast.Expr) *snapInfo,
	matchLoad func(ast.Expr) (cowField, bool),
	lhs ast.Expr) {

	switch t := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		base := ast.Unparen(t.X)
		if key, ok := matchLoad(base); ok {
			pass.Reportf(lhs.Pos(),
				"cowstore: field write through Load()ed snapshot of %s; copy the snapshot before mutating", key)
			return
		}
		if st, ok := base.(*ast.StarExpr); ok {
			base = ast.Unparen(st.X)
		}
		if sv := snapOf(base); sv != nil {
			if !sv.deref {
				pass.Reportf(lhs.Pos(),
					"cowstore: field write through Load()ed snapshot of %s; copy the snapshot before mutating", sv.key)
				return
			}
			// Whole-field assignment on a value copy refreshes the field.
			sv.refreshed[t.Sel.Name] = true
		}
	case *ast.IndexExpr:
		reportShared := func(key cowField) {
			pass.Reportf(lhs.Pos(),
				"cowstore: element write into a map/slice still shared with the Load()ed snapshot of %s; allocate and fill a fresh one first", key)
		}
		x := ast.Unparen(t.X)
		if st, ok := x.(*ast.StarExpr); ok {
			if key, ok := matchLoad(ast.Unparen(st.X)); ok {
				reportShared(key)
				return
			}
			if sv := snapOf(ast.Unparen(st.X)); sv != nil && !sv.deref {
				reportShared(sv.key)
				return
			}
		}
		if sv := snapOf(x); sv != nil {
			// A deref copy of a map-typed T still aliases the snapshot's
			// map; same for a pointer snapshot indexed directly.
			reportShared(sv.key)
			return
		}
		if sel, ok := x.(*ast.SelectorExpr); ok {
			selBase := ast.Unparen(sel.X)
			if key, ok := matchLoad(selBase); ok {
				reportShared(key)
				return
			}
			if st, ok := selBase.(*ast.StarExpr); ok {
				selBase = ast.Unparen(st.X)
			}
			if sv := snapOf(selBase); sv != nil {
				if !sv.deref || !sv.refreshed[sel.Sel.Name] {
					reportShared(sv.key)
				}
			}
		}
	case *ast.StarExpr:
		if key, ok := matchLoad(ast.Unparen(t.X)); ok {
			pass.Reportf(lhs.Pos(),
				"cowstore: write through Load()ed snapshot of %s; copy the snapshot before mutating", key)
			return
		}
		if sv := snapOf(ast.Unparen(t.X)); sv != nil && !sv.deref {
			pass.Reportf(lhs.Pos(),
				"cowstore: write through Load()ed snapshot of %s; copy the snapshot before mutating", sv.key)
		}
	}
}

// rmwEvent is one atomic Load/Store/CompareAndSwap observed in a body.
type rmwEvent struct {
	key    cowField
	base   string
	method string
	pos    token.Pos
	held   []string // sorted printed receivers of mutexes held at the call
}

// checkCowRMW requires every Load→Store sequence on one atomic.Pointer
// field to run under the field's declared writer mutex (or be replaced by a
// CompareAndSwap loop). Bodies are scanned with the lock scanner so the
// lock state at the Store is exact for the straight-line writer idiom.
func checkCowRMW(pass *Pass, pkg *Package, reg *cowRegistry) {
	info := pkg.TypesInfo
	forEachFuncBody(pkg.Syntax, func(body *ast.BlockStmt) {
		var events []rmwEvent
		sc := &lockScanner{
			info: info,
			onCall: func(call *ast.CallExpr, held lockState) {
				if snap, method, ok := slotStore(info, reg, body, call); ok {
					want := snap.base + "." + reg.guard[snap.key]
					if _, guarded := held[want]; !guarded {
						pass.Reportf(call.Pos(),
							"cowstore: element %s into the Load()ed snapshot of %s outside the declared writer mutex %s; a slot updated in place is written under the mutex its snapshot is swapped under",
							method, snap.key, want)
					}
					return
				}
				key, base, method, ok := atomicFieldOp(info, reg, call)
				if !ok {
					return
				}
				events = append(events, rmwEvent{key: key, base: base, method: method, pos: call.Pos(), held: slices.Sorted(maps.Keys(held))})
			},
		}
		sc.scan(body.List, lockState{})

		loaded := map[cowField]map[string]bool{}
		for _, ev := range events {
			if ev.method == "Load" {
				if loaded[ev.key] == nil {
					loaded[ev.key] = map[string]bool{}
				}
				loaded[ev.key][ev.base] = true
			}
		}
		for _, ev := range events {
			if ev.method != "Store" && ev.method != "Swap" {
				continue
			}
			if !loaded[ev.key][ev.base] {
				continue // blind Store (constructor, reset): not a RMW
			}
			guard := reg.guard[ev.key]
			if guard == "" {
				pass.Reportf(ev.pos,
					"cowstore: read-modify-write of %s (Load then %s) with no declared writer mutex; annotate the serializing mutex with //lint:guards %s or use a CompareAndSwap loop",
					ev.key, ev.method, fieldOf(ev.key))
				continue
			}
			want := ev.base + "." + guard
			if !slices.Contains(ev.held, want) {
				pass.Reportf(ev.pos,
					"cowstore: read-modify-write of %s (Load then %s) outside the declared writer mutex %s; two concurrent writers would lose an update",
					ev.key, ev.method, want)
			}
		}
	})
}

// loadedSnap is where a snapshot expression came from: <base>.<field>.Load().
type loadedSnap struct {
	key  cowField
	base string
}

// loadedSnapshot finds where body assigns v from <base>.<field>.Load().
func loadedSnapshot(info *types.Info, reg *cowRegistry, body *ast.BlockStmt, v types.Object) (snap loadedSnap, ok bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		for i := 0; isAssign && len(as.Lhs) == len(as.Rhs) && i < len(as.Lhs); i++ {
			id, isIdent := as.Lhs[i].(*ast.Ident)
			call, isCall := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !isIdent || !isCall || info.ObjectOf(id) != v {
				continue
			}
			if key, base, method, isOp := atomicFieldOp(info, reg, call); isOp && method == "Load" {
				snap, ok = loadedSnap{key, base}, true
			}
		}
		return !ok
	})
	return snap, ok
}

// slotStore recognizes call, in body, as an atomic Store, Swap or
// CompareAndSwap on an element of a slice reached — through any fields and
// indices — from the Load()ed snapshot of a field that declares a guard.
func slotStore(info *types.Info, reg *cowRegistry, body *ast.BlockStmt, call *ast.CallExpr) (snap loadedSnap, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Store" && sel.Sel.Name != "Swap" && sel.Sel.Name != "CompareAndSwap" {
		return loadedSnap{}, "", false
	}
	elem, isIndex := ast.Unparen(sel.X).(*ast.IndexExpr)
	if !isIndex || !isAtomicPointer(info.TypeOf(elem)) {
		return loadedSnap{}, "", false
	}
	for root := ast.Expr(elem); ; {
		switch e := ast.Unparen(root).(type) {
		case *ast.IndexExpr:
			root = e.X
		case *ast.SelectorExpr:
			root = e.X
		case *ast.StarExpr:
			root = e.X
		case *ast.Ident:
			snap, ok = loadedSnapshot(info, reg, body, info.ObjectOf(e))
			return snap, sel.Sel.Name, ok && reg.guard[snap.key] != ""
		case *ast.CallExpr:
			key, base, m, isOp := atomicFieldOp(info, reg, e)
			return loadedSnap{key, base}, sel.Sel.Name, isOp && m == "Load" && reg.guard[key] != ""
		default:
			return loadedSnap{}, "", false
		}
	}
}

// fieldOf extracts the field name from a cowField key.
func fieldOf(k cowField) string {
	s := string(k)
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// forEachFuncBody hands every function body in files to fn: declared
// functions, and every function literal, including those in package-level
// initializers, which the call graph has no node for.
func forEachFuncBody(files []*ast.File, fn func(*ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Body)
				}
			case *ast.FuncLit:
				fn(d.Body)
			}
			return true
		})
	}
}

// lockScanner is the lock-state walk shared by locks and cowstore. It
// tracks which mutexes are held through a linear scan and hands blocking
// constructs, calls and acquisitions to its callbacks, any of which may be
// nil. Callbacks must not retain held: the scanner mutates it.
type lockScanner struct {
	info *types.Info
	// onBlocking receives syntactic blocking constructs (channel send and
	// receive, blocking select) reached while held is non-empty.
	onBlocking func(pos token.Pos, desc string, held lockState)
	// onCall receives every call expression, with what is held at it.
	onCall func(call *ast.CallExpr, held lockState)
	// canon maps a mutex receiver expression to its canonical repo-wide
	// name (e.g. "grm.GRM.mu"), recorded on each acquisition.
	canon func(recv ast.Expr) string
	// onAcquire receives every Lock/RLock, with the state held at that
	// moment (not yet including the new lock).
	onAcquire func(acq lockAcq, held lockState)
}

// lockAcq is one recorded mutex acquisition.
type lockAcq struct {
	pos token.Pos
	// canon is the canonical lock name, "" when the scanner has no resolver.
	canon string
}

// lockState maps the printed receiver expression of a held mutex (e.g.
// "c.mu") to its acquisition record.
type lockState map[string]lockAcq

func (s lockState) clone() lockState { return maps.Clone(s) }

// scan linearly scans a statement list, updating held across Lock/Unlock
// calls and reporting blocking operations while held is non-empty. Nested
// blocks are scanned with a copy of the state, so a conditional
// early-unlock-and-return does not leak into the fallthrough path.
func (sc *lockScanner) scan(stmts []ast.Stmt, held lockState) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if recvExpr, recv, op, ok := mutexOp(sc.info, s.X); ok {
				switch op {
				case "Lock", "RLock":
					acq := lockAcq{pos: s.Pos()}
					if sc.canon != nil {
						acq.canon = sc.canon(recvExpr)
					}
					if sc.onAcquire != nil {
						sc.onAcquire(acq, held)
					}
					held[recv] = acq
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				continue
			}
			sc.checkExpr(s.X, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the mutex held for the rest of the
			// function body; any other defer runs outside the scanned
			// region, so skip it.
			continue
		case *ast.GoStmt:
			// The spawned goroutine does not run under the caller's lock.
			continue
		case *ast.SendStmt:
			sc.blocking(s.Pos(), "channel send", held)
			sc.checkExpr(s.Value, held)
		case *ast.IfStmt:
			sc.checkStmt(s.Init, held)
			sc.checkExpr(s.Cond, held)
			sc.scan(s.Body.List, held.clone())
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				sc.scan(e.List, held.clone())
			case *ast.IfStmt:
				sc.scan([]ast.Stmt{e}, held.clone())
			}
		case *ast.ForStmt:
			sc.checkStmt(s.Init, held)
			sc.checkExpr(s.Cond, held)
			sc.checkStmt(s.Post, held)
			sc.scan(s.Body.List, held.clone())
		case *ast.RangeStmt:
			sc.checkExpr(s.X, held)
			sc.scan(s.Body.List, held.clone())
		case *ast.SwitchStmt:
			sc.checkStmt(s.Init, held)
			sc.checkExpr(s.Tag, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					sc.scan(cc.Body, held.clone())
				}
			}
		case *ast.TypeSwitchStmt:
			sc.checkStmt(s.Init, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					sc.scan(cc.Body, held.clone())
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				sc.blocking(s.Pos(), "blocking select", held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					sc.scan(cc.Body, held.clone())
				}
			}
		case *ast.BlockStmt:
			sc.scan(s.List, held.clone())
		case *ast.LabeledStmt:
			sc.scan([]ast.Stmt{s.Stmt}, held)
		default:
			sc.checkStmt(stmt, held)
		}
	}
}

// blocking hands a blocking construct reached under a lock to onBlocking.
func (sc *lockScanner) blocking(pos token.Pos, desc string, held lockState) {
	if len(held) > 0 && sc.onBlocking != nil {
		sc.onBlocking(pos, desc, held)
	}
}

// checkStmt inspects a simple statement's expressions.
func (sc *lockScanner) checkStmt(stmt ast.Stmt, held lockState) {
	if stmt == nil {
		return
	}
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			sc.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			sc.checkExpr(e, held)
		}
	case *ast.ExprStmt:
		sc.checkExpr(s.X, held)
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				sc.checkExpr(e, held)
				return false
			}
			return true
		})
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Compound statements are handled by scan.
	}
}

// checkExpr reports blocking operations and calls inside expr. It does not
// descend into function literals: a closure defined under the lock does not
// run under it.
func (sc *lockScanner) checkExpr(expr ast.Expr, held lockState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				sc.blocking(e.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if sc.onCall != nil {
				sc.onCall(e, held)
			}
		}
		return true
	})
}

// mutexOp recognizes expr as a Lock/Unlock/RLock/RUnlock call on a
// sync.Mutex or sync.RWMutex and returns the receiver expression and its
// printed form.
func mutexOp(info *types.Info, expr ast.Expr) (recvExpr ast.Expr, recv, op string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return nil, "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", "", false
	}
	return sel.X, types.ExprString(sel.X), sel.Sel.Name, true
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// heldNames renders the currently held mutexes for diagnostics.
func heldNames(held lockState) string {
	return strings.Join(slices.Sorted(maps.Keys(held)), ", ")
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file extracts wire-schema summaries for the wiredrift analyzer: the
// ordered sequence of typed Encoder.Put* / Decoder.Get* operations a
// function performs on one encoder or decoder value, following Marshal and
// Unmarshal helpers through the call graph and folding control flow into
// structured items:
//
//   - a loop whose body touches the stream becomes a repeated group;
//   - `if cond { ops }` with no else becomes an optional group;
//   - the repo's optional-field idiom — encoder
//     `if p != nil { e.PutBool(true); fields } else { e.PutBool(false) }`
//     versus decoder `if d.Bool() { fields }` — normalizes on both sides to
//     [bool, opt(fields)];
//   - anything the extractor cannot linearize (both-branch writes, switches
//     over the stream, closures capturing it, Reset mid-sequence)
//     becomes an opaque item that truncates the comparison instead of
//     producing a false positive.

// wireKind classifies one wire sequence item.
type wireKind int

const (
	// wirePrim is a single typed read or write (tok holds the token class).
	wirePrim wireKind = iota
	// wireRepeat is a group written/read once per element of a collection.
	wireRepeat
	// wireOpt is a group present on only one control-flow path.
	wireOpt
	// wireOpaque marks a region the extractor cannot linearize; comparison
	// stops at it.
	wireOpaque
)

// wireItem is one element of a wire-schema summary.
type wireItem struct {
	kind wireKind
	// tok is the token class of a wirePrim: u8, bool, u32, u64, i64, f64,
	// string, bytes, time, duration.
	tok string
	// pos locates the operation (or group) for diagnostics.
	pos token.Pos
	// body holds the nested sequence of wireRepeat/wireOpt groups.
	body []wireItem
}

// wireKey memoizes helper summaries per (function, stream parameter).
type wireKey struct {
	node *FuncNode
	v    *types.Var
}

// wireAnalyzer owns the memoized extraction state for one repo pass.
type wireAnalyzer struct {
	graph *CallGraph
	fset  *token.FileSet
	memo  map[wireKey][]wireItem
	// active guards against recursive helpers: re-entry yields opaque.
	active map[wireKey]bool
}

func newWireAnalyzer(g *CallGraph) *wireAnalyzer {
	return &wireAnalyzer{
		graph:  g,
		memo:   map[wireKey][]wireItem{},
		active: map[wireKey]bool{},
	}
}

// summary returns the wire operations node performs on the stream variable v
// (an *orb.Encoder or *orb.Decoder parameter or local), memoized.
func (w *wireAnalyzer) summary(node *FuncNode, v *types.Var) []wireItem {
	key := wireKey{node: node, v: v}
	if s, ok := w.memo[key]; ok {
		return s
	}
	if w.active[key] {
		// Recursive marshal helper: treat the nested occurrence as opaque.
		return []wireItem{{kind: wireOpaque, pos: node.Body.Pos()}}
	}
	w.active[key] = true
	c := &wireCollector{w: w, node: node, tgt: v}
	s := c.walk(node.Body)
	delete(w.active, key)
	w.memo[key] = s
	return s
}

// wireCollector walks one function body collecting stream operations on one
// target variable, in statement order.
type wireCollector struct {
	w    *wireAnalyzer
	node *FuncNode
	tgt  *types.Var
	// cutoff, when valid, drops every operation at or after it (used to
	// restrict a client-side scan to the ops before the Invoke call).
	cutoff token.Pos
}

func (c *wireCollector) info() *types.Info { return c.node.Pkg.TypesInfo }

// isTarget reports whether e denotes the stream variable (directly, via
// parens, or via &v).
func (c *wireCollector) isTarget(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.info().Uses[id]
	if obj == nil {
		obj = c.info().Defs[id]
	}
	return obj != nil && obj == c.tgt
}

// refersToTarget reports whether the target variable appears anywhere in n.
func (c *wireCollector) refersToTarget(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			obj := c.info().Uses[id]
			if obj == nil {
				obj = c.info().Defs[id]
			}
			if obj != nil && obj == c.tgt {
				found = true
			}
		}
		return true
	})
	return found
}

// walk returns the wire operations inside n, in execution (source) order.
func (c *wireCollector) walk(n ast.Node) []wireItem {
	if n == nil {
		return nil
	}
	if c.cutoff.IsValid() && n.Pos() >= c.cutoff {
		return nil
	}
	switch s := n.(type) {
	case *ast.CallExpr:
		return c.call(s)
	case *ast.IfStmt:
		return c.ifStmt(s)
	case *ast.ForStmt:
		out := c.walk(s.Init)
		body := append(c.walk(s.Cond), append(c.walk(s.Body), c.walk(s.Post)...)...)
		if len(body) > 0 {
			out = append(out, wireItem{kind: wireRepeat, pos: s.Pos(), body: body})
		}
		return out
	case *ast.RangeStmt:
		out := c.walk(s.X)
		if body := c.walk(s.Body); len(body) > 0 {
			out = append(out, wireItem{kind: wireRepeat, pos: s.Pos(), body: body})
		}
		return out
	case *ast.SwitchStmt:
		return c.branchy(s, c.walk(s.Init), c.walk(s.Tag), s.Body)
	case *ast.TypeSwitchStmt:
		return c.branchy(s, c.walk(s.Init), nil, s.Body)
	case *ast.SelectStmt:
		return c.branchy(s, nil, nil, s.Body)
	case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
		// Deferred/spawned/closed-over stream use has no reliable position
		// in the sequence — except a pooled encoder's deferred return to the
		// pool, which runs after every write.
		if d, ok := n.(*ast.DeferStmt); ok && c.putsBack(d.Call) {
			return nil
		}
		if c.refersToTarget(n) {
			return []wireItem{{kind: wireOpaque, pos: n.Pos()}}
		}
		return nil
	}
	// Generic node: traverse children in source order, intercepting the
	// structured forms above.
	var out []wireItem
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil || x == n {
			return true
		}
		switch x.(type) {
		case *ast.CallExpr, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
			*ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			out = append(out, c.walk(x)...)
			return false
		}
		return true
	})
	return out
}

// putsBack reports whether call is orb.PutEncoder(<target>).
func (c *wireCollector) putsBack(call *ast.CallExpr) bool {
	fn := calleeFunc(c.info(), call)
	return fn != nil && fn.Name() == "PutEncoder" && fn.Pkg() != nil && fn.Pkg().Path() == orbPkgPath &&
		len(call.Args) == 1 && c.isTarget(call.Args[0])
}

// ifStmt folds a conditional into the sequence: ops in init/cond first, then
// a then-only branch becomes an optional group. The encoder-side optional
// idiom `if p != nil { PutBool(true); X } else { PutBool(false) }` is
// factored to [bool, opt(X)] so it lines up with the decoder's
// `if d.Bool() { X }`. Any other two-armed write pattern is opaque.
func (c *wireCollector) ifStmt(s *ast.IfStmt) []wireItem {
	out := append(c.walk(s.Init), c.walk(s.Cond)...)
	then := c.walk(s.Body)
	var els []wireItem
	if s.Else != nil {
		els = c.walk(s.Else)
	}
	switch {
	case len(then) == 0 && len(els) == 0:
	case len(els) == 0:
		out = append(out, wireItem{kind: wireOpt, pos: s.Pos(), body: then})
	case len(then) == 0:
		out = append(out, wireItem{kind: wireOpt, pos: s.Pos(), body: els})
	case boolGuardPair(then, els):
		out = append(out, then[0])
		if rest := then[1:]; len(rest) > 0 {
			out = append(out, wireItem{kind: wireOpt, pos: s.Pos(), body: rest})
		}
	default:
		out = append(out, wireItem{kind: wireOpaque, pos: s.Pos()})
	}
	return out
}

// boolGuardPair recognizes then = [bool, ...] / else = [bool]: the presence
// flag wrote on both arms, payload on one.
func boolGuardPair(then, els []wireItem) bool {
	return len(els) == 1 && els[0].kind == wirePrim && els[0].tok == "bool" &&
		len(then) >= 1 && then[0].kind == wirePrim && then[0].tok == "bool"
}

// branchy handles switch/type-switch/select: tag ops are emitted, and any
// stream use inside the clauses makes the construct opaque (clauses are
// alternatives the linear model cannot express).
func (c *wireCollector) branchy(n ast.Node, init, tag []wireItem, body *ast.BlockStmt) []wireItem {
	out := append(init, tag...)
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		for _, st := range stmts {
			if len(c.walk(st)) > 0 {
				return append(out, wireItem{kind: wireOpaque, pos: n.Pos()})
			}
		}
	}
	return out
}

// call classifies one call expression: a typed stream operation on the
// target, a helper call the target is passed to (expanded through the call
// graph), or an unrelated call whose arguments are still scanned.
func (c *wireCollector) call(call *ast.CallExpr) []wireItem {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.isTarget(sel.X) {
		var out []wireItem
		for _, a := range call.Args {
			out = append(out, c.walk(a)...)
		}
		return append(out, c.streamOp(sel, call)...)
	}
	var out []wireItem
	expanded := false
	for i, a := range call.Args {
		if c.isTarget(a) {
			if items, ok := c.expandCallee(call, i); ok {
				out = append(out, items...)
			} else {
				out = append(out, wireItem{kind: wireOpaque, pos: a.Pos()})
			}
			expanded = true
			continue
		}
		out = append(out, c.walk(a)...)
	}
	if !expanded {
		out = append(out, c.walk(call.Fun)...)
	}
	return out
}

// streamOp maps one Encoder/Decoder method call on the target to wire items.
func (c *wireCollector) streamOp(sel *ast.SelectorExpr, call *ast.CallExpr) []wireItem {
	fn, _ := c.info().Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != orbPkgPath {
		return nil
	}
	recv := ""
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		if named := namedType(sig.Recv().Type()); named != nil {
			recv = named.Obj().Name()
		}
	}
	pos := call.Pos()
	prim := func(tok string) []wireItem {
		return []wireItem{{kind: wirePrim, tok: tok, pos: pos}}
	}
	lenPrefixed := func(tok string) []wireItem {
		return []wireItem{
			{kind: wirePrim, tok: "u32", pos: pos},
			{kind: wireRepeat, pos: pos, body: []wireItem{{kind: wirePrim, tok: tok, pos: pos}}},
		}
	}
	switch recv {
	case "Encoder":
		switch sel.Sel.Name {
		case "PutU8":
			return prim("u8")
		case "PutBool":
			return prim("bool")
		case "PutU32":
			return prim("u32")
		case "PutU64":
			return prim("u64")
		case "PutI64", "PutInt":
			return prim("i64")
		case "PutF64":
			return prim("f64")
		case "PutString":
			return prim("string")
		case "PutBytes":
			return prim("bytes")
		case "PutTime":
			return prim("time")
		case "PutDuration":
			return prim("duration")
		case "PutStrings":
			return lenPrefixed("string")
		case "Reset":
			// The byte stream restarts: nothing after this point lines up
			// with what was already written.
			return []wireItem{{kind: wireOpaque, pos: pos}}
		}
	case "Decoder":
		switch sel.Sel.Name {
		case "U8":
			return prim("u8")
		case "Bool":
			return prim("bool")
		case "U32", "Count":
			return prim("u32")
		case "U64":
			return prim("u64")
		case "I64", "Int":
			return prim("i64")
		case "F64":
			return prim("f64")
		case "String", "RawString":
			return prim("string")
		case "Bytes", "RawBytes":
			return prim("bytes")
		case "Time":
			return prim("time")
		case "Duration":
			return prim("duration")
		case "Strings":
			return lenPrefixed("string")
		}
	}
	return nil
}

// expandCallee splices in the callee's summary for the parameter the target
// is passed as. It resolves declared functions, methods, and local closure
// variables; anything else (interface methods, externals) is unexpandable.
func (c *wireCollector) expandCallee(call *ast.CallExpr, argIndex int) ([]wireItem, bool) {
	var target *FuncNode
	if fn := calleeFunc(c.info(), call); fn != nil {
		target = c.w.graph.NodeOf(fn)
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := c.info().Uses[id].(*types.Var); ok {
			target = c.w.graph.NodeOfVar(v)
		}
	}
	if target == nil || target.Body == nil {
		return nil, false
	}
	pv := paramVar(target, argIndex)
	if pv == nil {
		return nil, false
	}
	return c.w.summary(target, pv), true
}

// paramVar returns the i'th parameter object of a graph node, for both
// declared functions and function literals.
func paramVar(node *FuncNode, i int) *types.Var {
	if node.Obj != nil {
		sig, _ := node.Obj.Type().(*types.Signature)
		if sig == nil || i >= sig.Params().Len() {
			return nil
		}
		return sig.Params().At(i)
	}
	if node.Lit != nil {
		idx := 0
		for _, field := range node.Lit.Type.Params.List {
			names := field.Names
			if len(names) == 0 {
				// Unnamed parameter still occupies one slot.
				if idx == i {
					return nil
				}
				idx++
				continue
			}
			for _, name := range names {
				if idx == i {
					v, _ := node.Pkg.TypesInfo.Defs[name].(*types.Var)
					return v
				}
				idx++
			}
		}
	}
	return nil
}

// renderWire prints a summary for diagnostics: "string u32 repeat(f64)".
func renderWire(items []wireItem) string {
	parts := make([]string, 0, len(items))
	for _, it := range items {
		parts = append(parts, renderWireItem(it))
	}
	return strings.Join(parts, " ")
}

func renderWireItem(it wireItem) string {
	switch it.kind {
	case wirePrim:
		return it.tok
	case wireRepeat:
		return "repeat(" + renderWire(it.body) + ")"
	case wireOpt:
		return "opt(" + renderWire(it.body) + ")"
	default:
		return "..."
	}
}

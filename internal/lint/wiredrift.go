package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// WireDrift checks every RPC edge for encode/decode schema drift.
var WireDrift = &Analyzer{
	Name: "wiredrift",
	Doc: "Every InteGrade protocol message is hand-written typed " +
		"encoder/decoder code; nothing but convention keeps the client's " +
		"Encoder.Put* sequence aligned with the handler's Decoder reads. This " +
		"analyzer pairs each Invoke(ref, <op>, arg) call site with the " +
		"OpMux.Handle(<op>, fn) registrations for the same operation, extracts " +
		"the ordered wire-token sequence on both sides — following Marshal and " +
		"Unmarshal helpers through the call graph, folding loops into repeated " +
		"groups and the PutBool-guarded optional-field idiom into optional " +
		"groups — and reports count, order and type mismatches, in both the " +
		"request direction (client encodes, handler decodes) and the reply " +
		"direction (handler encodes, client decodes). Regions the extractor " +
		"cannot linearize (tagged unions, ignored payloads, raw byte " +
		"passthrough) truncate the comparison rather than guess.",
	RunRepo: runWireDrift,
}

func runWireDrift(pass *RepoPass) error {
	w := newWireAnalyzer(pass.Graph)
	w.fset = pass.Fset
	for _, site := range pass.Graph.Invokes {
		handlers := pass.Graph.Handlers(site.Op)
		if len(handlers) == 0 {
			continue
		}
		clientReq, reqKnown := w.clientRequest(site)
		clientReply, replyKnown := w.clientReply(site)
		for _, h := range handlers {
			if !servantShaped(h) {
				continue
			}
			if reqKnown {
				if hReq, ok := w.handlerRequest(h); ok {
					if detail := w.compareWire(clientReq, hReq, "client", "handler"); detail != "" {
						pass.Reportf(site.Call.Pos(),
							"wire drift on %q request: client encodes [%s], handler %s decodes [%s]: %s",
							site.Op, renderWire(clientReq), h.Name(), renderWire(hReq), detail)
					}
				}
			}
			if replyKnown {
				if hReply, ok := w.handlerReply(h); ok {
					if detail := w.compareWire(hReply, clientReply, "handler", "client"); detail != "" {
						pass.Reportf(site.Call.Pos(),
							"wire drift on %q reply: handler %s encodes [%s], client decodes [%s]: %s",
							site.Op, h.Name(), renderWire(hReply), renderWire(clientReply), detail)
					}
				}
			}
		}
	}
	return nil
}

// servantShaped reports whether h has the ServantFunc signature
// (string, *orb.Decoder) (*orb.Encoder, error); handler factories resolved
// to themselves do not, and are skipped.
func servantShaped(h *FuncNode) bool {
	if h.Body == nil {
		return false
	}
	var sig *types.Signature
	if h.Obj != nil {
		sig, _ = h.Obj.Type().(*types.Signature)
	} else if h.Lit != nil {
		if tv, ok := h.Pkg.TypesInfo.Types[h.Lit]; ok {
			sig, _ = tv.Type.(*types.Signature)
		}
	}
	if sig == nil || sig.Params().Len() != 2 || sig.Results().Len() != 2 {
		return false
	}
	return isOrbStream(sig.Params().At(1).Type(), "Decoder") &&
		isOrbStream(sig.Results().At(0).Type(), "Encoder")
}

func isOrbStream(t types.Type, name string) bool {
	named := namedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == orbPkgPath && obj.Name() == name
}

// clientRequest extracts the wire sequence the client writes before this
// Invoke. Recognized shapes: a nil argument (empty request) and an encoder
// variable written before `Invoke(ref, op, e.Bytes())` — `var e orb.Encoder`
// or a pooled `e := orb.GetEncoder()`, whose `orb.PutEncoder(e)`, deferred or
// after the Invoke, is no write. Anything else (raw byte slices, pass-through
// payloads) is unknown.
func (w *wireAnalyzer) clientRequest(site InvokeSite) ([]wireItem, bool) {
	info := site.From.Pkg.TypesInfo
	arg := ast.Unparen(site.Call.Args[2])
	if tv, ok := info.Types[arg]; ok && tv.IsNil() {
		return nil, true
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Bytes" {
		return nil, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || site.From.Body == nil {
		return nil, false
	}
	c := &wireCollector{w: w, node: site.From, tgt: v, cutoff: site.Call.Pos()}
	return c.walk(site.From.Body), true
}

// clientReply extracts the wire sequence the client decodes from this
// Invoke's reply. Recognized shapes: `reply, err := Invoke(...)` followed by
// either `d := orb.NewDecoder(reply); <ops on d>` or
// `Helper(orb.NewDecoder(reply), ...)`. A discarded reply (`_, err :=`) is
// an intentional ignore and unknown.
func (w *wireAnalyzer) clientReply(site InvokeSite) ([]wireItem, bool) {
	if site.From.Body == nil {
		return nil, false
	}
	info := site.From.Pkg.TypesInfo
	replyVar := assignedVar(info, site.From.Body, site.Call, 0)
	if replyVar == nil {
		return nil, false
	}
	// Find orb.NewDecoder(reply) and its context.
	var items []wireItem
	found := false
	ast.Inspect(site.From.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			// d := orb.NewDecoder(reply)
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			if !isNewDecoderOf(info, s.Rhs[0], replyVar) {
				return true
			}
			id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			d, _ := info.Defs[id].(*types.Var)
			if d == nil {
				d, _ = info.Uses[id].(*types.Var)
			}
			if d == nil {
				return true
			}
			c := &wireCollector{w: w, node: site.From, tgt: d}
			items, found = c.walk(site.From.Body), true
			return false
		case *ast.CallExpr:
			// Helper(orb.NewDecoder(reply), ...)
			for i, a := range s.Args {
				if !isNewDecoderOf(info, a, replyVar) {
					continue
				}
				fn := calleeFunc(info, s)
				if fn == nil {
					return true
				}
				target := w.graph.NodeOf(fn)
				if target == nil || target.Body == nil {
					return true
				}
				pv := paramVar(target, i)
				if pv == nil {
					return true
				}
				items, found = w.summary(target, pv), true
				return false
			}
		}
		return true
	})
	return items, found
}

// assignedVar returns the variable the i'th result of call is assigned to in
// body, or nil (blank, or not an assignment).
func assignedVar(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr, i int) *types.Var {
	var out *types.Var
	ast.Inspect(body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != call || i >= len(as.Lhs) {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			out = v
		} else if v, ok := info.Uses[id].(*types.Var); ok {
			out = v
		}
		return false
	})
	return out
}

// isNewDecoderOf recognizes expr as orb.NewDecoder(<replyVar>).
func isNewDecoderOf(info *types.Info, expr ast.Expr, replyVar *types.Var) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "NewDecoder" || fn.Pkg() == nil || fn.Pkg().Path() != orbPkgPath {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	return info.Uses[id] == replyVar
}

// handlerRequest extracts the wire sequence a handler reads from its request
// decoder. A blank decoder parameter intentionally ignores the payload and
// is unknown.
func (w *wireAnalyzer) handlerRequest(h *FuncNode) ([]wireItem, bool) {
	pv := paramVar(h, 1)
	if pv == nil {
		return nil, false
	}
	return w.summary(h, pv), true
}

// handlerReply extracts the wire sequence a handler writes into its returned
// encoder: `return &orb.Encoder{}` and `return nil` are empty replies;
// `return &e` summarizes the ops on e; a returned helper call recurses.
// Mixed or unrecognized return shapes are unknown.
func (w *wireAnalyzer) handlerReply(h *FuncNode) ([]wireItem, bool) {
	info := h.Pkg.TypesInfo
	var encVar *types.Var
	sawEmpty := false
	known := true
	inspectOwn(h.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || !known || len(ret.Results) == 0 {
			return
		}
		res := ast.Unparen(ret.Results[0])
		if u, ok := res.(*ast.UnaryExpr); ok && u.Op == token.AND {
			res = ast.Unparen(u.X)
		}
		switch r := res.(type) {
		case *ast.Ident:
			if r.Name == "nil" {
				return
			}
			v, _ := info.Uses[r].(*types.Var)
			if v == nil {
				known = false
				return
			}
			if encVar != nil && encVar != v {
				known = false
				return
			}
			encVar = v
		case *ast.CompositeLit:
			// &orb.Encoder{}: the empty reply.
			if len(r.Elts) == 0 {
				sawEmpty = true
				return
			}
			known = false
		default:
			known = false
		}
	})
	if !known {
		return nil, false
	}
	if encVar == nil {
		if sawEmpty {
			return nil, true
		}
		return nil, false
	}
	if sawEmpty {
		// Some paths return an empty reply, others a populated one: the
		// client cannot rely on either schema.
		return nil, false
	}
	return w.summary(h, encVar), true
}

// compareWire checks reader against writer item by item and returns a human
// description of the first mismatch, or "". An opaque item on either side
// truncates the comparison: everything before it must already line up.
func (w *wireAnalyzer) compareWire(writer, reader []wireItem, wName, rName string) string {
	n := len(writer)
	if len(reader) < n {
		n = len(reader)
	}
	for k := 0; k < n; k++ {
		wi, ri := writer[k], reader[k]
		if wi.kind == wireOpaque || ri.kind == wireOpaque {
			return ""
		}
		if wi.kind == wirePrim && ri.kind == wirePrim {
			if !wireCompatible(wi.tok, ri.tok) {
				return fmt.Sprintf("item %d: %s writes %s (%s), %s reads %s (%s)",
					k+1, wName, wi.tok, w.shortPos(wi.pos), rName, ri.tok, w.shortPos(ri.pos))
			}
			continue
		}
		if wi.kind == ri.kind {
			if d := w.compareWire(wi.body, ri.body, wName, rName); d != "" {
				return fmt.Sprintf("item %d: %s: %s", k+1, wireGroupName(wi.kind), d)
			}
			continue
		}
		return fmt.Sprintf("item %d: %s writes %s (%s), %s reads %s (%s)",
			k+1, wName, renderWireItem(wi), w.shortPos(wi.pos), rName, renderWireItem(ri), w.shortPos(ri.pos))
	}
	if len(writer) != len(reader) {
		if hasOpaque(writer[n:]) || hasOpaque(reader[n:]) {
			return ""
		}
		return fmt.Sprintf("%s writes %d item(s), %s reads %d", wName, len(writer), rName, len(reader))
	}
	return ""
}

// wireCompatible groups tokens with identical wire representation: bool is a
// one-byte u8, duration an i64, and string/bytes share the length-prefixed
// layout.
func wireCompatible(a, b string) bool {
	if a == b {
		return true
	}
	class := func(t string) string {
		switch t {
		case "u8", "bool":
			return "byte"
		case "i64", "duration":
			return "i64"
		case "string", "bytes":
			return "lenprefixed"
		}
		return t
	}
	return class(a) == class(b)
}

func hasOpaque(items []wireItem) bool {
	for _, it := range items {
		if it.kind == wireOpaque {
			return true
		}
	}
	return false
}

func wireGroupName(k wireKind) string {
	if k == wireRepeat {
		return "repeated group"
	}
	return "optional group"
}

// shortPos renders a position as base-filename:line for mismatch details.
func (w *wireAnalyzer) shortPos(p token.Pos) string {
	if w.fset == nil || !p.IsValid() {
		return "?"
	}
	pos := w.fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

package constraint

// BlockSize is the most records one Filter call takes. A block is what a scan
// keeps in flight at once: its records' cache misses overlap, where evaluating
// one record to the end before touching the next takes them in turn. Anything
// from 8 to 128 measures the same (DESIGN.md §16); 32 keeps the caller's arrays
// at a few hundred bytes of stack.
const BlockSize = 32

// Filter narrows sel — ascending positions into recs, at most BlockSize of
// them — to the records e holds for, which are exactly those Eval returns
// (true, nil) on: a record whose evaluation errors is dropped like one that
// evaluates to false. The result overwrites sel's prefix and is returned. A nil
// record is one without properties.
//
// Eval defines the language; Filter is the same answer computed a term across
// the block at a time, for the two shapes trader constraints are made of, and
// by Eval's own tree walk for everything else.
//
//lint:hotpath alloc=0 locks=0 block=0
func (e *Expr) Filter(recs []*Record, sel []uint8) []uint8 {
	return filter(e.root, recs, sel)
}

// filter narrows sel to the records n evaluates to true on, without error.
func filter(n node, recs []*Record, sel []uint8) []uint8 {
	switch n := n.(type) {
	case *logicNode:
		if n.op == opAnd {
			// Narrowing term by term is the short circuit: a record leaves at
			// its first term that is false, errors or is not boolean, and no
			// later term looks at it.
			for _, term := range n.terms {
				sel = filter(term, recs, sel)
			}
			return sel
		}
	case *propCmpNode:
		if n.lit.kind == kindNumber || n.op == opEq || n.op == opNe {
			return n.filter(recs, sel)
		}
	}
	k := 0
	for _, p := range sel {
		if v, err := n.eval(recs[p]); err == nil && v.kind == kindBool && v.truth {
			sel[k] = p
			k++
		}
	}
	return sel[:k]
}

// filter is "property <cmp> literal" over a block: numbers under all six
// operators, strings and booleans under == and !=. It reads each value where it
// lies — Field.Of's binding, written out because Of is too big to inline and
// returns a 32-byte copy, its word loaded once for the block — and builds no
// error: a record that lacks the property, or holds another kind there, is an
// evaluation error to eval and simply not selected here.
func (n *propCmpNode) filter(recs []*Record, sel []uint8) []uint8 {
	k, equal := 0, n.op == opEq
	b := n.field.bound.Load()
	for _, p := range sel {
		r := recs[p]
		if r == nil {
			continue
		}
		if uint32(b>>32) != r.schema.id {
			b = n.field.rebind(r.schema)
		}
		if uint32(b) == 0 {
			continue
		}
		v := &r.values[uint32(b)-1]
		if v.kind != n.lit.kind {
			continue
		}
		var ok bool
		switch v.kind {
		case kindNumber:
			ok = numberHolds(n.op, v.num, n.lit.num)
		case kindString:
			ok = (v.str == n.lit.str) == equal
		default:
			ok = (v.truth == n.lit.truth) == equal
		}
		if ok {
			sel[k] = p
			k++
		}
	}
	return sel[:k]
}

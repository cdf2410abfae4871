package constraint

import (
	"errors"
	"fmt"
	"strings"
)

// Value is a runtime value of the constraint language: float64, string or
// bool. kind and truth share the first word, which keeps a Value at 32
// bytes: at 40 every evaluation step and every property-map slot paid for
// the fifth word (BenchmarkEval ran twice as long).
type Value struct {
	kind  valueKind
	truth bool
	num   float64
	str   string
}

type valueKind uint8

const (
	kindNumber valueKind = iota + 1
	kindString
	kindBool
)

// Number wraps a float64 as a Value.
func Number(v float64) Value { return Value{kind: kindNumber, num: v} }

// String wraps a string as a Value.
func String(v string) Value { return Value{kind: kindString, str: v} }

// Bool wraps a bool as a Value.
func Bool(v bool) Value { return Value{kind: kindBool, truth: v} }

// AsNumber returns the numeric value and whether the Value is a number.
func (v Value) AsNumber() (float64, bool) { return v.num, v.kind == kindNumber }

// AsString returns the string value and whether the Value is a string.
func (v Value) AsString() (string, bool) { return v.str, v.kind == kindString }

// AsBool returns the boolean value and whether the Value is a boolean.
func (v Value) AsBool() (bool, bool) { return v.truth, v.kind == kindBool }

// GoString renders the value for diagnostics.
func (v Value) GoString() string {
	switch v.kind {
	case kindNumber:
		return fmt.Sprintf("%g", v.num)
	case kindString:
		return fmt.Sprintf("%q", v.str)
	case kindBool:
		return fmt.Sprintf("%t", v.truth)
	}
	return "<invalid>"
}

// Context supplies property values during evaluation.
type Context interface {
	// Property returns the value of the named property; ok is false when
	// the property is absent.
	Property(name string) (Value, bool)
}

// Properties is a map-backed Context: the literal and builder form of a
// property list. Record converts one to the immutable form offers store.
type Properties map[string]Value

// Property implements Context.
func (p Properties) Property(name string) (Value, bool) {
	v, ok := p[name]
	return v, ok
}

// EvalError describes a type or missing-property failure during evaluation.
type EvalError struct {
	Expr string
	Msg  string
}

// Error implements the error interface.
func (e *EvalError) Error() string {
	return fmt.Sprintf("constraint: eval %q: %s", e.Expr, e.Msg)
}

// ErrMissingProperty is wrapped by evaluation errors caused by property
// lookups on absent names (use "exist name" to guard).
var ErrMissingProperty = errors.New("missing property")

// Eval evaluates the expression against ctx and requires a boolean result.
func (e *Expr) Eval(ctx Context) (bool, error) {
	v, err := e.root.eval(ctx)
	if err != nil {
		return false, &EvalError{Expr: e.src, Msg: err.Error()} //lint:alloc error slow path
	}
	if v.kind != kindBool {
		return false, &EvalError{Expr: e.src, Msg: "expression is not boolean"} //lint:alloc error slow path
	}
	return v.truth, nil
}

// EvalNumber evaluates the expression and requires a numeric result. Rank
// ("preference") expressions use this.
func (e *Expr) EvalNumber(ctx Context) (float64, error) {
	v, err := e.root.eval(ctx)
	if err != nil {
		return 0, &EvalError{Expr: e.src, Msg: err.Error()} //lint:alloc error slow path
	}
	if v.kind != kindNumber {
		return 0, &EvalError{Expr: e.src, Msg: "expression is not numeric"} //lint:alloc error slow path
	}
	return v.num, nil
}

func (n *literalNode) eval(Context) (Value, error) { return n.v, nil }

// lookup reads one property; an absent one is an error.
func lookup(ctx Context, f *Field) (Value, error) {
	v, ok := f.Of(ctx)
	if !ok {
		return Value{}, fmt.Errorf("%w: %q", ErrMissingProperty, f.name)
	}
	return v, nil
}

func (n *identNode) eval(ctx Context) (Value, error) { return lookup(ctx, &n.field) }

func (n *existNode) eval(ctx Context) (Value, error) {
	_, ok := n.field.Of(ctx)
	return Bool(ok), nil
}

func (n *unaryNode) eval(ctx Context) (Value, error) {
	v, err := n.child.eval(ctx)
	if err != nil {
		return Value{}, err
	}
	if n.op == opNeg {
		if v.kind != kindNumber {
			return Value{}, fmt.Errorf("unary - on non-number %s", v.GoString())
		}
		return Number(-v.num), nil
	}
	if v.kind != kindBool {
		return Value{}, fmt.Errorf("not on non-boolean %s", v.GoString())
	}
	return Bool(!v.truth), nil
}

func (n *propCmpNode) eval(ctx Context) (Value, error) {
	v, err := lookup(ctx, &n.field)
	if err != nil {
		return Value{}, err
	}
	return compare(n.op, v, n.lit)
}

func (n *logicNode) eval(ctx Context) (Value, error) {
	decided := n.op == opOr // the truth value that ends the chain early
	for _, term := range n.terms {
		v, err := term.eval(ctx)
		if err != nil {
			return Value{}, err
		}
		if v.kind != kindBool {
			return Value{}, fmt.Errorf("%s on non-boolean %s", n.op, v.GoString())
		}
		if v.truth == decided {
			return v, nil
		}
	}
	return Bool(!decided), nil
}

func (n *binaryNode) eval(ctx Context) (Value, error) {
	l, err := n.left.eval(ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := n.right.eval(ctx)
	if err != nil {
		return Value{}, err
	}
	switch n.op {
	case opAdd, opSub, opMul, opDiv:
		if l.kind != kindNumber || r.kind != kindNumber {
			return Value{}, fmt.Errorf("arithmetic %s on %s and %s", n.op, l.GoString(), r.GoString())
		}
		switch n.op {
		case opAdd:
			return Number(l.num + r.num), nil
		case opSub:
			return Number(l.num - r.num), nil
		case opMul:
			return Number(l.num * r.num), nil
		default:
			if r.num == 0 {
				return Value{}, errors.New("division by zero")
			}
			return Number(l.num / r.num), nil
		}
	case opIn:
		// substring / membership test on strings.
		if l.kind != kindString || r.kind != kindString {
			return Value{}, fmt.Errorf("in on %s and %s", l.GoString(), r.GoString())
		}
		return Bool(strings.Contains(r.str, l.str)), nil
	}
	return compare(n.op, l, r)
}

// compare evaluates one of the six comparison operators, opEq to opGe.
func compare(o op, l, r Value) (Value, error) {
	if l.kind == kindNumber && r.kind == kindNumber {
		return Bool(numberHolds(o, l.num, r.num)), nil
	}
	if o == opEq || o == opNe {
		if l.kind != r.kind {
			return Value{}, fmt.Errorf("comparing %s with %s", l.GoString(), r.GoString())
		}
		return Bool((l == r) == (o == opEq)), nil
	}
	if l.kind != r.kind || l.kind == kindBool {
		return Value{}, fmt.Errorf("ordering %s against %s", l.GoString(), r.GoString())
	}
	// Strings order by their three-way comparison's sign, taken against zero.
	return Bool(numberHolds(o, float64(strings.Compare(l.str, r.str)), 0)), nil
}

// numberHolds reports whether "l <o> r" holds for two numbers and one of the six
// comparison operators: one float comparison each, so the block filter's loop
// has a single data-dependent branch. A NaN is neither below nor above
// anything: it is unequal to every number, and <= and >= hold for it.
func numberHolds(o op, l, r float64) bool {
	switch o {
	case opEq:
		return l == r
	case opNe:
		return l != r
	case opLt:
		return l < r
	case opLe:
		return !(l > r)
	case opGt:
		return l > r
	default:
		return !(l < r)
	}
}

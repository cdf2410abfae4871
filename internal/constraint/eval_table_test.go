package constraint

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// operand is one side of a generated expression: its source text, and the
// value it evaluates to (ok false: a property the context lacks).
type operand struct {
	text string
	val  Value
	ok   bool
}

// tableProps is the context every generated expression runs against. "gone"
// is deliberately absent.
var tableProps = Properties{
	"n":  Number(8),
	"z":  Number(0),
	"s":  String("linux"),
	"t":  Bool(true),
	"f":  Bool(false),
	"n2": Number(8),
}

var tableOperands = []operand{
	{"n", Number(8), true},
	{"z", Number(0), true},
	{"s", String("linux"), true},
	{"t", Bool(true), true},
	{"f", Bool(false), true},
	{"gone", Value{}, false},
	{"8", Number(8), true},
	{"0", Number(0), true},
	{"9.5", Number(9.5), true},
	{"'linux'", String("linux"), true},
	{"'in'", String("in"), true},
	{"true", Bool(true), true},
	{"false", Bool(false), true},
}

// wantBinary is the specification of one binary operator, written out
// independently of the evaluator: the result value, or the message inside
// the EvalError. It pins the error text, which callers and logs see.
func wantBinary(op string, l, r operand) (Value, string) {
	missing := func(o operand) string { return fmt.Sprintf("missing property: %q", o.text) }
	if !l.ok {
		return Value{}, missing(l)
	}
	if op == "and" || op == "or" {
		if l.val.kind != kindBool {
			return Value{}, fmt.Sprintf("%s on non-boolean %s", op, l.val.GoString())
		}
		if l.val.truth == (op == "or") {
			return l.val, "" // short circuit: the right side is never looked at
		}
		if !r.ok {
			return Value{}, missing(r)
		}
		if r.val.kind != kindBool {
			return Value{}, fmt.Sprintf("%s on non-boolean %s", op, r.val.GoString())
		}
		return r.val, ""
	}
	if !r.ok {
		return Value{}, missing(r)
	}
	lv, rv := l.val, r.val
	ls, rs := lv.GoString(), rv.GoString()
	switch op {
	case "+", "-", "*", "/":
		if lv.kind != kindNumber || rv.kind != kindNumber {
			return Value{}, fmt.Sprintf("arithmetic %s on %s and %s", op, ls, rs)
		}
		switch op {
		case "+":
			return Number(lv.num + rv.num), ""
		case "-":
			return Number(lv.num - rv.num), ""
		case "*":
			return Number(lv.num * rv.num), ""
		}
		if rv.num == 0 {
			return Value{}, "division by zero"
		}
		return Number(lv.num / rv.num), ""
	case "==", "!=":
		if lv.kind != rv.kind {
			return Value{}, fmt.Sprintf("comparing %s with %s", ls, rs)
		}
		return Bool((lv == rv) == (op == "==")), ""
	case "<", "<=", ">", ">=":
		if lv.kind != rv.kind || lv.kind == kindBool {
			return Value{}, fmt.Sprintf("ordering %s against %s", ls, rs)
		}
		c := strings.Compare(lv.str, rv.str)
		if lv.kind == kindNumber {
			c = cmp.Compare(lv.num, rv.num)
		}
		return Bool(map[string]bool{"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]), ""
	case "in":
		if lv.kind != kindString || rv.kind != kindString {
			return Value{}, fmt.Sprintf("in on %s and %s", ls, rs)
		}
		return Bool(strings.Contains(rv.str, lv.str)), ""
	}
	panic("unknown operator " + op)
}

// tableContexts is tableProps in both forms a Context takes; every row of the
// tables below must read the same from either.
var tableContexts = []Context{tableProps, tableProps.Record()}

// checkEval runs src through Eval and EvalNumber over tableProps, as a map
// and as a record, and compares against the specified value or message; then
// through the block filter, which must select the records Eval holds on.
func checkEval(t *testing.T, src string, want Value, wantMsg string) {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	for _, ctx := range tableContexts {
		checkEvalOn(t, e, ctx, want, wantMsg)
	}
	checkFilter(t, e, tableBlock)
}

func checkEvalOn(t *testing.T, e *Expr, ctx Context, want Value, wantMsg string) {
	t.Helper()
	src := e.Source()
	wrap := func(msg string) string { return fmt.Sprintf("constraint: eval %q: %s", src, msg) }

	boolMsg, numMsg := wantMsg, wantMsg
	if wantMsg == "" && want.kind != kindBool {
		boolMsg = "expression is not boolean"
	}
	if wantMsg == "" && want.kind != kindNumber {
		numMsg = "expression is not numeric"
	}
	b, err := e.Eval(ctx)
	switch {
	case boolMsg != "":
		if err == nil || err.Error() != wrap(boolMsg) || b {
			t.Errorf("Eval(%q) on %T = %v, %v; want error %q", src, ctx, b, err, wrap(boolMsg))
		}
	case err != nil || b != want.truth:
		t.Errorf("Eval(%q) on %T = %v, %v; want %v", src, ctx, b, err, want.truth)
	}
	n, err := e.EvalNumber(ctx)
	switch {
	case numMsg != "":
		if err == nil || err.Error() != wrap(numMsg) || n != 0 {
			t.Errorf("EvalNumber(%q) on %T = %v, %v; want error %q", src, ctx, n, err, wrap(numMsg))
		}
	case err != nil || n != want.num:
		t.Errorf("EvalNumber(%q) on %T = %v, %v; want %v", src, ctx, n, err, want.num)
	}
	var ee *EvalError
	if err != nil && !errors.As(err, &ee) {
		t.Errorf("EvalNumber(%q) error %T is not an *EvalError", src, err)
	}
}

// TestEvalOperatorTable evaluates every binary operator over every pairing
// of operand kind — number, string, boolean, missing property, as property
// and as literal, on either side — and both unary operators over every kind,
// against the written-out specification above. It covers the kind
// mismatches and missing properties of each operator and pins their error
// text.
func TestEvalOperatorTable(t *testing.T) {
	for _, op := range []string{"and", "or", "+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "in"} {
		for _, l := range tableOperands {
			for _, r := range tableOperands {
				want, msg := wantBinary(op, l, r)
				checkEval(t, l.text+" "+op+" "+r.text, want, msg)
			}
		}
	}
	for _, o := range tableOperands {
		var want Value
		msg := ""
		switch {
		case !o.ok:
			msg = fmt.Sprintf("missing property: %q", o.text)
		case o.val.kind != kindNumber:
			msg = "unary - on non-number " + o.val.GoString()
		default:
			want = Number(-o.val.num)
		}
		checkEval(t, "-("+o.text+")", want, msg)

		want, msg = Value{}, ""
		switch {
		case !o.ok:
			msg = fmt.Sprintf("missing property: %q", o.text)
		case o.val.kind != kindBool:
			msg = "not on non-boolean " + o.val.GoString()
		default:
			want = Bool(!o.val.truth)
		}
		checkEval(t, "not "+o.text, want, msg)
	}
}

// TestEvalErrorTextPinned spells a few of the table's messages out in full,
// so a change to the specification function above cannot move them silently.
func TestEvalErrorTextPinned(t *testing.T) {
	for src, want := range map[string]string{
		"gone >= 5":    `constraint: eval "gone >= 5": missing property: "gone"`,
		"s >= 5":       `constraint: eval "s >= 5": ordering "linux" against 5`,
		"t < true":     `constraint: eval "t < true": ordering true against true`,
		"n == 'linux'": `constraint: eval "n == 'linux'": comparing 8 with "linux"`,
		"s != false":   `constraint: eval "s != false": comparing "linux" with false`,
		"n in s":       `constraint: eval "n in s": in on 8 and "linux"`,
		"n and t":      `constraint: eval "n and t": and on non-boolean 8`,
		"f or s":       `constraint: eval "f or s": or on non-boolean "linux"`,
		"s * 2 > 1":    `constraint: eval "s * 2 > 1": arithmetic * on "linux" and 2`,
		"n / z > 1":    `constraint: eval "n / z > 1": division by zero`,
		"not n":        `constraint: eval "not n": not on non-boolean 8`,
		"-s > 1":       `constraint: eval "-s > 1": unary - on non-number "linux"`,
		"n + 1":        `constraint: eval "n + 1": expression is not boolean`,
	} {
		for _, ctx := range tableContexts {
			if _, err := MustCompile(src).Eval(ctx); err == nil || err.Error() != want {
				t.Errorf("Eval(%q) on %T error = %v, want %s", src, ctx, err, want)
			}
		}
		checkFilter(t, MustCompile(src), tableBlock) // an error is a mismatch, not a panic
	}
}

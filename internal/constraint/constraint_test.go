package constraint

import (
	"errors"
	"testing"
	"testing/quick"
)

func evalBool(t *testing.T, src string, props Properties) bool {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	got, err := e.Eval(props)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return got
}

func TestEvalBooleans(t *testing.T) {
	props := Properties{
		"mips":      Number(800),
		"ram":       Number(512),
		"os":        String("linux"),
		"dedicated": Bool(false),
	}
	tests := []struct {
		src  string
		want bool
	}{
		{"mips >= 500", true},
		{"mips >= 500 and ram >= 16", true},
		{"mips >= 500 && ram >= 1024", false},
		{"mips >= 500 || ram >= 1024", true},
		{"os == 'linux'", true},
		{`os == "windows"`, false},
		{"os != 'windows'", true},
		{"not dedicated", true},
		{"!dedicated", true},
		{"dedicated == false", true},
		{"true", true},
		{"false or true", true},
		{"mips + ram > 1300", true},
		{"mips * 2 >= 1600", true},
		{"mips / 2 == 400", true},
		{"-mips < 0", true},
		{"(mips > 1000 or ram > 256) and os == 'linux'", true},
		{"exist mips", true},
		{"exist gpu", false},
		{"not exist gpu", true},
		{"exist gpu or mips > 0", true},
		{"'inux' in os", true},
		{"'win' in os", false},
		{"mips = 800", true}, // single '=' treated as equality
		{"1_000 > 999", true},
		{"os < 'mac'", true}, // lexicographic string ordering
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := evalBool(t, tt.src, props); got != tt.want {
				t.Fatalf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
			}
		})
	}
}

func TestEvalNumber(t *testing.T) {
	e := mustCompile("mips / 100 + bonus")
	got, err := e.evalNumber(Properties{"mips": Number(800), "bonus": Number(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("evalNumber = %v, want 10", got)
	}
	if _, err := e.evalNumber(Properties{"mips": Number(800)}); err == nil {
		t.Fatal("missing property accepted")
	}
	boolExpr := mustCompile("true")
	if _, err := boolExpr.evalNumber(Properties{}); err == nil {
		t.Fatal("evalNumber accepted boolean expression")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"mips >",
		"mips >= ",
		"(mips > 1",
		"mips ? 1",
		"'unterminated",
		"1..2 > 0",
		"exist 42",
		"and and",
		"mips > 1 extra",
	}
	for _, src := range bad {
		t.Run(src, func(t *testing.T) {
			if _, err := Compile(src); err == nil {
				t.Fatalf("Compile(%q) succeeded, want error", src)
			}
		})
	}
}

func TestSyntaxErrorContainsPosition(t *testing.T) {
	_, err := Compile("mips ? 1")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("error type = %T", err)
	}
	if serr.Pos != 5 {
		t.Fatalf("Pos = %d, want 5", serr.Pos)
	}
	if serr.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestEvalErrors(t *testing.T) {
	tests := []struct {
		src   string
		props Properties
	}{
		{"missing > 1", Properties{}},
		{"1 / 0 > 1", Properties{}},
		{"'a' + 1 > 0", Properties{}},
		{"true > false", Properties{}},
		{"not 5", Properties{}},
		{"-'a' < 0", Properties{}},
		{"1 and true", Properties{}},
		{"true and 1", Properties{}},
		{"os == 1", Properties{"os": String("linux")}},
		{"5 in os", Properties{"os": String("linux")}},
		{"5", Properties{}}, // non-boolean top level
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			e, err := Compile(tt.src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if _, err := e.Eval(tt.props); err == nil {
				t.Fatalf("Eval(%q) succeeded, want error", tt.src)
			}
		})
	}
}

func TestMissingPropertyErrorIsMatchable(t *testing.T) {
	e := mustCompile("gpu > 1")
	_, err := e.Eval(Properties{})
	if err == nil {
		t.Fatal("want error")
	}
	var everr *EvalError
	if !errors.As(err, &everr) {
		t.Fatalf("error type = %T", err)
	}
}

func TestShortCircuitGuardsMissingProperties(t *testing.T) {
	// "exist gpu and gpu > 1" must not error when gpu is absent.
	if evalBool(t, "exist gpu and gpu > 1", Properties{}) {
		t.Fatal("want false")
	}
	if !evalBool(t, "not exist gpu or gpu > 1", Properties{}) {
		t.Fatal("want true")
	}
}

func TestPrecedence(t *testing.T) {
	// and binds tighter than or: true or (false and false) = true.
	if !evalBool(t, "true or false and false", Properties{}) {
		t.Fatal("or/and precedence wrong")
	}
	// * binds tighter than +: 2+3*4 = 14.
	if !evalBool(t, "2 + 3 * 4 == 14", Properties{}) {
		t.Fatal("+/* precedence wrong")
	}
	// comparison binds tighter than and.
	if !evalBool(t, "1 < 2 and 3 < 4", Properties{}) {
		t.Fatal("cmp/and precedence wrong")
	}
	// unary minus: -2*3 == -6.
	if !evalBool(t, "-2 * 3 == -6", Properties{}) {
		t.Fatal("unary minus precedence wrong")
	}
}

func TestStringEscapes(t *testing.T) {
	if !evalBool(t, `s == 'it\'s'`, Properties{"s": String("it's")}) {
		t.Fatal("escaped quote mishandled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic on bad input")
		}
	}()
	mustCompile("((")
}

// Property: comparison operators on numbers agree with Go's comparison.
func TestNumericComparisonProperty(t *testing.T) {
	f := func(a, b int16) bool {
		props := Properties{"a": Number(float64(a)), "b": Number(float64(b))}
		checks := map[string]bool{
			"a < b":  a < b,
			"a <= b": a <= b,
			"a > b":  a > b,
			"a >= b": a >= b,
			"a == b": a == b,
			"a != b": a != b,
		}
		for src, want := range checks {
			e, err := Compile(src)
			if err != nil {
				return false
			}
			got, err := e.Eval(props)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: arithmetic in the language matches Go arithmetic for small ints.
func TestArithmeticProperty(t *testing.T) {
	e := mustCompile("a * b + c")
	f := func(a, b, c int8) bool {
		got, err := e.evalNumber(Properties{
			"a": Number(float64(a)),
			"b": Number(float64(b)),
			"c": Number(float64(c)),
		})
		return err == nil && got == float64(a)*float64(b)+float64(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan's law holds for all boolean combinations.
func TestDeMorganProperty(t *testing.T) {
	lhs := mustCompile("not (p and q)")
	rhs := mustCompile("not p or not q")
	f := func(p, q bool) bool {
		props := Properties{"p": Bool(p), "q": Bool(q)}
		a, err1 := lhs.Eval(props)
		b, err2 := rhs.Eval(props)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDottedIdentifiers(t *testing.T) {
	if !evalBool(t, "node.mips > 100", Properties{"node.mips": Number(200)}) {
		t.Fatal("dotted identifier lookup failed")
	}
}

func TestSourceRoundTrip(t *testing.T) {
	const src = "mips >= 500 and ram >= 16"
	e := mustCompile(src)
	if e.src != src {
		t.Fatalf("src = %q", e.src)
	}
}

// mustCompile is Compile that fails by panicking, for the tests' static
// expressions.
func mustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

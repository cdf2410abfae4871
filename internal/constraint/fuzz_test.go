package constraint

import "testing"

// FuzzCompile asserts the lexer/parser never panic and that successfully
// compiled expressions evaluate without panicking against fixed contexts: a
// property set, the same names with every kind changed, and no properties at
// all — so each operator meets operands of the right kind, of the wrong kind
// and missing. Each context is evaluated as a map and as a record (the empty
// one also as a nil *Record), in turn through the one compiled expression, so
// its fields rebind between schemas; both forms must give the same value and
// the same error text. Then every record context goes through the block filter
// as one block — the two property sets under a second schema with the names in
// other slots as well, a record lacking most names, the empty and the nil one —
// which must select, position for position, the records Eval holds on.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"mips >= 500 and ram >= 16",
		"not exist gpu or gpu > 1",
		"os == 'linux'",
		"((a))",
		"1 + 2 * 3 - -4 / 5 < 6",
		"'str' in os",
		"a = b",
		"!x && y || z",
		"os >= 5 or mips == 'linux' or a < true",
		"ram != 512 and -os < 1 and not mips",
		"gpu * 2 >= ram / 0",
		"", "(", "'", "1..", "exist", "and", "a ? b",
	} {
		f.Add(seed)
	}
	props := Properties{
		"mips": Number(800),
		"ram":  Number(512),
		"os":   String("linux"),
		"a":    Bool(true),
		"b":    Bool(false),
		"x":    Bool(true),
		"y":    Bool(false),
		"z":    Bool(true),
		"gpu":  Number(2),
	}
	mismatched := Properties{
		"mips": String("800"),
		"ram":  Bool(true),
		"os":   Number(1),
		"a":    Number(1),
		"b":    String("false"),
		"x":    String(""),
		"y":    Number(0),
		"z":    String("z"),
		"gpu":  Bool(false),
	}
	block := []*Record{
		props.Record(), reslot(mismatched), nil, mismatched.Record(), reslot(props),
		Properties{"mips": Number(800), "a": Bool(true)}.Record(), Properties{}.Record(), props.Record(),
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return // rejections are fine; panics are not
		}
		for _, p := range []Properties{props, mismatched, {}} {
			records := []*Record{p.Record()}
			if len(p) == 0 {
				records = append(records, nil)
			}
			for _, r := range records {
				b, bErr := e.Eval(p)
				rb, rbErr := e.Eval(r)
				if b != rb || errText(bErr) != errText(rbErr) {
					t.Fatalf("Eval(%q): map gives %v, %v; record gives %v, %v", src, b, bErr, rb, rbErr)
				}
				n, nErr := e.EvalNumber(p)
				rn, rnErr := e.EvalNumber(r)
				if (n != rn && (n == n || rn == rn)) || errText(nErr) != errText(rnErr) {
					t.Fatalf("EvalNumber(%q): map gives %v, %v; record gives %v, %v", src, n, nErr, rn, rnErr)
				}
			}
		}
		checkFilter(t, e, block)
		if e.Source() != src {
			t.Fatalf("Source() = %q, want %q", e.Source(), src)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

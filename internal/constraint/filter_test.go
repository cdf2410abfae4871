package constraint

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// checkFilter holds the block filter to Eval: over recs, and over every other
// position of recs, Filter must select exactly the positions Eval returns
// (true, nil) on, in order, and write them over the prefix of sel.
func checkFilter(t testing.TB, e *Expr, recs []*Record) {
	t.Helper()
	if len(recs) > BlockSize {
		t.Fatalf("a block of %d records, BlockSize is %d", len(recs), BlockSize)
	}
	for step := 1; step <= 2; step++ {
		var sel, want []uint8
		for i := 0; i < len(recs); i += step {
			sel = append(sel, uint8(i))
			if ok, err := e.Eval(recs[i]); ok && err == nil {
				want = append(want, uint8(i))
			}
		}
		got := e.Filter(recs, sel)
		if !slices.Equal(got, want) {
			t.Fatalf("Filter(%q) over every %d. of %d records selects %v, Eval holds on %v", e.Source(), step, len(recs), got, want)
		}
		if len(got) > 0 && &got[0] != &sel[0] {
			t.Fatalf("Filter(%q) did not narrow sel in place", e.Source())
		}
	}
}

// reslot is p.Record() with the slots reversed: the same names, sorted
// descending instead of ascending, so a field bound to one rebinds on the other.
func reslot(p Properties) *Record {
	names := slices.Sorted(maps.Keys(p))
	slices.Reverse(names)
	values := make([]Value, len(names))
	for i, k := range names {
		values[i] = p[k]
	}
	return NewSchema(names...).Record(values)
}

// tableBlock is what the operator table filters: tableProps under two schemas
// that put its names in different slots, so a field rebinds inside one block,
// the same names holding other kinds, a record lacking most of them, and
// records without properties.
var tableBlock = func() []*Record {
	otherKinds := Properties{"n": String("8"), "z": Bool(false), "s": Number(1), "t": Number(1), "f": String("f"), "n2": Bool(true)}
	return []*Record{
		tableProps.Record(), nil, reslot(tableProps), otherKinds.Record(),
		Properties{"n": Number(9)}.Record(), Properties{}.Record(), reslot(otherKinds), tableProps.Record(),
	}
}()

// TestFilterTakesAFullBlock filters BlockSize records, the most a call takes,
// under an and-chain whose every term drops some: the selection narrows to
// nothing and to everything, and the positions that survive stay in order.
func TestFilterTakesAFullBlock(t *testing.T) {
	recs := make([]*Record, BlockSize)
	for i := range recs {
		recs[i] = Properties{"mips": Number(float64(i * 100)), "os": String([]string{"linux", "plan9"}[i%2]), "busy": Bool(i%3 == 0)}.Record()
	}
	for _, src := range []string{
		"mips >= 0",
		"mips < 0",
		"mips >= 1000 and os == 'linux' and busy != true",
		"mips >= 1000 and (os == 'plan9' or busy) and not busy == false",
		"os < 'm' and mips > 500",
		"mips / 100 >= 16 and exist os",
		"gone == 1 and mips >= 0",
	} {
		checkFilter(t, MustCompile(src), recs)
	}
	all := make([]uint8, BlockSize)
	for i := range all {
		all[i] = uint8(i)
	}
	if got := MustCompile("mips >= 0 and busy == busy").Filter(recs, slices.Clone(all)); !slices.Equal(got, all) {
		t.Fatalf("a constraint every record satisfies selects %v", got)
	}
	if got := MustCompile("true").Filter(nil, nil); len(got) != 0 {
		t.Fatalf("an empty block selects %v", got)
	}
}

// TestNaNCompares pins what a NaN property does under each operator, through
// Eval and through the filter: it is unequal to every number, neither below nor
// above one, and so <= and >= hold for it.
func TestNaNCompares(t *testing.T) {
	recs := []*Record{Properties{"x": Number(math.NaN())}.Record()}
	for src, want := range map[string]bool{
		"x == 5": false, "x != 5": true, "x < 5": false, "x <= 5": true, "x > 5": false, "x >= 5": true,
		"x + 0 == 5": false, "x + 0 != 5": true, "x + 0 < 5": false, "x + 0 <= 5": true, "x + 0 > 5": false, "x + 0 >= 5": true,
	} {
		e := MustCompile(src)
		if got, err := e.Eval(recs[0]); err != nil || got != want {
			t.Errorf("Eval(%q) on a NaN = %v, %v; want %v", src, got, err, want)
		}
		checkFilter(t, e, recs)
	}
}

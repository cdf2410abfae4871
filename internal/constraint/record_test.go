package constraint

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestSchemaInterning(t *testing.T) {
	a := NewSchema("mips", "ram", "os")
	if b := NewSchema("mips", "ram", "os"); a != b {
		t.Fatal("the same names in the same order gave two schemas")
	}
	names := []string{"mips", "ram", "os"}
	c := NewSchema(names...)
	names[0] = "changed" // the schema must not alias the caller's slice
	if c != a || NewSchema("mips", "ram", "os") != a {
		t.Fatal("a schema aliased the name slice it was built from")
	}
	if NewSchema("ram", "mips", "os") == a {
		t.Fatal("a different order gave the same schema")
	}
	if NewSchema("mips", "ram") == a || NewSchema("mips", "ram", "os", "arch") == a {
		t.Fatal("a different length gave the same schema")
	}
	// Names that run together differently are different lists.
	if NewSchema("ab", "c") == NewSchema("a", "bc") {
		t.Fatal("name boundaries are not part of the intern key")
	}
	if p, q := (Properties{"x": Number(1), "y": Number(2)}).Record(), (Properties{"y": Bool(true), "x": String("s")}).Record(); p.schema != q.schema {
		t.Fatal("two maps with the same keys gave records of different schemas")
	}
}

func TestSchemaRejectsRepeatedName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchema accepted a repeated name")
		}
	}()
	NewSchema("mips", "ram", "mips")
}

func TestSchemaRecord(t *testing.T) {
	s := NewSchema("b", "a", "c")
	for _, n := range []int{0, 2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Record accepted %d values for 3 names", n)
				}
			}()
			s.Record(make([]Value, n))
		}()
	}
	r := s.Record([]Value{Number(1), String("x"), Bool(true)})
	want := map[string]Value{"b": Number(1), "a": String("x"), "c": Bool(true)}
	for k, v := range want {
		if got, ok := r.Property(k); !ok || got != v || r.Get(k) != v {
			t.Errorf("Property(%q) = %#v, %v; want %#v", k, got, ok, v)
		}
	}
	if _, ok := r.Property("d"); ok || r.Get("d") != (Value{}) {
		t.Error("an absent property was found")
	}
	var order []string
	for k := range r.All() {
		order = append(order, k)
	}
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) || !reflect.DeepEqual(maps.Collect(r.All()), want) || r.Len() != 3 {
		t.Errorf("All() = %v in order %v", maps.Collect(r.All()), order)
	}

	var none *Record
	if _, ok := none.Property("a"); ok || none.Len() != 0 || len(maps.Collect(none.All())) != 0 {
		t.Error("a nil record is not empty")
	}
}

// TestFieldRebindsUnderRace evaluates one shared expression from several
// goroutines over records of two schemas that put the same names in different
// slots, strictly alternating — so every read finds the fields bound to the
// other schema, or halfway through another goroutine's rebinding — plus the
// map form and a record lacking a name — and filters the records as one block,
// where a kernel rebinds from a word it loaded once for the block. Every result
// must be right; under -race the rebinding must also be free of data races.
func TestFieldRebindsUnderRace(t *testing.T) {
	e := MustCompile("mips >= 500 and os == 'linux' and not exist gpu")
	rank := MustCompile("mips * 2 + ram")
	forward := NewSchema("mips", "ram", "os")
	reverse := NewSchema("os", "ram", "mips")
	lacking := NewSchema("ram", "os")
	mk := func(s *Schema, vals ...Value) *Record { return s.Record(vals) }
	cases := []struct {
		ctx      Context
		match    bool
		matchErr string
		rank     float64
	}{
		{mk(forward, Number(800), Number(64), String("linux")), true, "", 1664},
		{mk(reverse, String("linux"), Number(32), Number(400)), false, "", 832},
		{Properties{"mips": Number(900), "ram": Number(1), "os": String("plan9")}, false, "", 1801},
		{mk(lacking, Number(16), String("linux")), false, `constraint: eval "mips >= 500 and os == 'linux' and not exist gpu": missing property: "mips"`, 0},
		{mk(reverse, String("linux"), Number(8), Number(500)), true, "", 1008},
	}
	var block []*Record
	var blockWant []uint8
	for _, c := range cases {
		if r, ok := c.ctx.(*Record); ok {
			if c.match {
				blockWant = append(blockWant, uint8(len(block)))
			}
			block = append(block, r)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				c := cases[(g+i)%len(cases)]
				ok, err := e.Eval(c.ctx)
				if ok != c.match || errText(err) != c.matchErr {
					t.Errorf("Eval on case %d = %v, %v; want %v, %q", (g+i)%len(cases), ok, err, c.match, c.matchErr)
					return
				}
				if n, err := rank.EvalNumber(c.ctx); c.matchErr == "" && (err != nil || n != c.rank) {
					t.Errorf("EvalNumber on case %d = %v, %v; want %v", (g+i)%len(cases), n, err, c.rank)
					return
				}
				sel := []uint8{0, 1, 2, 3}
				if got := e.Filter(block, sel[:len(block)]); !slices.Equal(got, blockWant) {
					t.Errorf("Filter selects %v, want %v", got, blockWant)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFieldOf reads through one Field every shape of context it can meet.
func TestFieldOf(t *testing.T) {
	f := NewField("ram")
	a := NewSchema("mips", "ram").Record([]Value{Number(1), Number(2)})
	b := NewSchema("ram", "mips").Record([]Value{Number(3), Number(4)})
	c := NewSchema("mips").Record([]Value{Number(5)})
	for i := 0; i < 3; i++ { // bound, rebound, bound to "absent", and round again
		for _, tc := range []struct {
			ctx  Context
			want Value
			ok   bool
		}{
			{a, Number(2), true},
			{a, Number(2), true},
			{b, Number(3), true},
			{c, Value{}, false},
			{c, Value{}, false},
			{Properties{"ram": Number(6)}, Number(6), true},
			{Properties{}, Value{}, false},
			{(*Record)(nil), Value{}, false},
		} {
			if got, ok := f.Of(tc.ctx); got != tc.want || ok != tc.ok {
				t.Errorf("round %d: Of(%s) = %#v, %v; want %#v, %v", i, fmt.Sprint(tc.ctx), got, ok, tc.want, tc.ok)
			}
		}
	}
}

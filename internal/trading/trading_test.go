package trading

import (
	"fmt"
	"testing"
	"unsafe"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/testutil/allocbudget"
)

func nodeRef(i int) orb.ObjectRef {
	return orb.ObjectRef{
		Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("node-%d", i)},
		Key:      "lrm",
	}
}

func nodeOffer(i int, mips, ram float64) Offer {
	return Offer{
		Ref: nodeRef(i),
		Properties: constraint.Properties{
			"mips": constraint.Number(mips),
			"ram":  constraint.Number(ram),
			"os":   constraint.String("linux"),
		}.Record(),
	}
}

// upsertOffer is Upsert through p of o's properties: o's record taken apart
// by recordParts.
func upsertOffer(s *Service, p Place, o Offer) bool {
	schema, values := recordParts(o.Properties)
	return s.Upsert(p, schema, values)
}

// recordParts takes a record built by Properties.Record apart into its schema —
// the names in ascending order — and its values in that order.
func recordParts(r *constraint.Record) (*constraint.Schema, []constraint.Value) {
	var names []string
	var values []constraint.Value
	for name, v := range r.All() {
		names = append(names, name)
		values = append(values, v)
	}
	return constraint.NewSchema(names...), values
}

func TestExportSelectWithdraw(t *testing.T) {
	s := NewService(nil)
	one, err := s.ExportKeyed(nodeOffer(1, 1000, 512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportKeyed(nodeOffer(2, 400, 256)); err != nil {
		t.Fatal(err)
	}

	offers, err := s.Select(Query{Constraint: "mips >= 500"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref != nodeRef(1) {
		t.Fatalf("Select = %v", offers)
	}
	if !s.Withdraw(one) {
		t.Fatal("Withdraw removed nothing")
	}
	if s.Withdraw(one) {
		t.Fatal("a second Withdraw through the same place removed something")
	}
	offers, _ = s.Select(Query{})
	if len(offers) != 1 || offers[0].Ref != nodeRef(2) {
		t.Fatalf("after withdraw = %v", offers)
	}
}

func TestSelectMissingPropertyFailsConstraintNotQuery(t *testing.T) {
	s := NewService(nil)
	if _, err := s.ExportKeyed(nodeOffer(1, 1000, 512)); err != nil {
		t.Fatal(err)
	}
	// Offer without "gpu": constraint referencing gpu simply doesn't match.
	offers, err := s.Select(Query{Constraint: "gpu >= 1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 0 {
		t.Fatalf("offers = %v", offers)
	}
}

func TestSelectBadExpressions(t *testing.T) {
	s := NewService(nil)
	for _, src := range []string{"(((", "mips >="} {
		if _, err := s.Select(Query{Constraint: src}); err == nil {
			t.Fatalf("bad constraint %q accepted", src)
		}
	}
}

// TestExportKeyedUpserts: a ref's second export replaces its first, is
// numbered after it and returns the same place, and an upsert through that
// place replaces it again.
func TestExportKeyedUpserts(t *testing.T) {
	s := NewService(nil)
	first, err := s.ExportKeyed(nodeOffer(1, 100, 512))
	if err != nil {
		t.Fatal(err)
	}
	firstSeq := first.e.st.seq
	second, err := s.ExportKeyed(nodeOffer(1, 999, 512))
	if err != nil || second != first {
		t.Fatalf("the second export = %v, %v; want the first's place %v", second, err, first)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1 (upsert)", got)
	}
	offers, _ := s.Select(Query{})
	mips, _ := offers[0].Properties.Get("mips").AsNumber()
	if mips != 999 || offers[0].Seq() != second.e.st.seq || second.e.st.seq <= firstSeq {
		t.Fatalf("upserted mips = %v, seq %d; exports numbered %d then %d", mips, offers[0].Seq(), firstSeq, second.e.st.seq)
	}
	if !upsertOffer(s, first, nodeOffer(1, 42, 512)) || s.Count() != 1 {
		t.Fatalf("an upsert through the place failed or added an offer: Count = %d", s.Count())
	}
	if offers, _ := s.Select(Query{Constraint: "mips == 42"}); len(offers) != 1 {
		t.Fatalf("after the upsert through the place %d offers have its mips", len(offers))
	}
	assertIndexConsistent(t, s)
}

// wideRecord is a record of n numeric properties, p00 upward, property i
// holding base+i: its schema and its values.
func wideRecord(n int, base float64) (*constraint.Schema, []constraint.Value) {
	names, values := make([]string, n), make([]constraint.Value, n)
	for i := range names {
		names[i], values[i] = fmt.Sprintf("p%02d", i), constraint.Number(base+float64(i))
	}
	return constraint.NewSchema(names...), values
}

// TestUpsertCopiesValues: Upsert takes its offer's reference from the place
// and copies the values into the offer, so a caller that rewrites its value
// array after Upsert returns, as the GRM's stack array is rewritten by the
// next update, leaves the stored offer as it was.
func TestUpsertCopiesValues(t *testing.T) {
	s := NewService(nil)
	schema, values := wideRecord(inlineValues, 0)
	p, err := s.ExportKeyed(Offer{Ref: nodeRef(1), Properties: schema.Record(values)})
	if err != nil {
		t.Fatal(err)
	}
	_, values = wideRecord(inlineValues, 100)
	if !s.Upsert(p, schema, values) {
		t.Fatal("an upsert through a live place was dropped")
	}
	for i := range values {
		values[i] = constraint.Number(-1)
	}
	got := s.All("")
	if len(got) != 1 || got[0].Ref != nodeRef(1) {
		t.Fatalf("the index holds %+v, want one offer of node 1", got)
	}
	i := 0
	for name, v := range got[0].Properties.All() {
		if want := fmt.Sprintf("p%02d", i); name != want || v != constraint.Number(100+float64(i)) {
			t.Fatalf("property %d is %s = %v, want %s = %d: the trader aliases the caller's array", i, name, v, want, 100+i)
		}
		i++
	}
	if i != inlineValues {
		t.Fatalf("the stored offer has %d values, want %d", i, inlineValues)
	}
}

// TestWideRecordPanics: an offer holds at most inlineValues values, and a
// write of more is a bug in its caller. Each write path panics on one before
// it changes anything: the index, its version and the offer already there read
// as they did.
func TestWideRecordPanics(t *testing.T) {
	s := NewService(nil)
	schema, values := wideRecord(inlineValues, 0)
	p := s.Export(nodeRef(1), schema, values)
	wide, wideValues := wideRecord(inlineValues+1, 0)
	v := s.Version()
	for _, write := range []struct {
		name string
		op   func()
	}{
		{"Export", func() { s.Export(nodeRef(2), wide, wideValues) }},
		{"ExportKeyed", func() { _, _ = s.ExportKeyed(Offer{Ref: nodeRef(1), Properties: wide.Record(wideValues)}) }},
		{"ExportBatch", func() { _, _ = s.ExportBatch([]Offer{{Ref: nodeRef(3), Properties: wide.Record(wideValues)}}) }},
		{"Upsert", func() { s.Upsert(p, wide, wideValues) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of %d values did not panic", write.name, inlineValues+1)
				}
			}()
			write.op()
		}()
	}
	if all := s.All(""); s.Version() != v || len(all) != 1 || all[0].Properties.Len() != inlineValues {
		t.Fatalf("after the panics the version moved %d -> %d and the index holds %d offers", v, s.Version(), len(all))
	}
	assertIndexConsistent(t, s)
}

// TestStoredLayout pins the byte map of a stored offer that DESIGN.md §16
// describes and the scan was tuned on: the record header first, Expires and
// seq behind it on the same 64-B line, and the values from byte 136 on.
func TestStoredLayout(t *testing.T) {
	var st stored
	for _, f := range []struct {
		name     string
		off, end uintptr
	}{
		{"rec", unsafe.Offsetof(st.rec), unsafe.Offsetof(st.rec) + unsafe.Sizeof(st.rec)},
		{"seq", unsafe.Offsetof(st.seq), unsafe.Offsetof(st.seq) + unsafe.Sizeof(st.seq)},
	} {
		if f.end > 64 {
			t.Errorf("%s spans bytes %d–%d of a stored offer, past its first 64", f.name, f.off, f.end-1)
		}
	}
	if off := unsafe.Offsetof(st.rec); off != 0 {
		t.Errorf("the record header is at byte %d, want 0", off)
	}
	if off := unsafe.Offsetof(st.vals); off != 136 {
		t.Errorf("the values are at byte %d, want 136", off)
	}
}

// TestUpsertFitsSizeClass is the size-class rule of inlineValues: an upsert of
// statusSchema's 19 values allocates one object of at most 768 B. A 20th
// inline value, or a new field of stored, tips it into the 896-B class and
// fails here; so does a capacity below 19, on which the upsert panics. The
// upserts run under a Hold, so that each allocates its offer instead of
// rewriting a retired one.
func TestUpsertFitsSizeClass(t *testing.T) {
	const updates, sizeClass, below = 100, 768, 640
	s := NewService(nil)
	schema, values := wideRecord(19, 0)
	p, err := s.ExportKeyed(Offer{Ref: nodeRef(1), Properties: schema.Record(values)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Hold()
	defer h.Release()
	got := allocbudget.Bytes(func() {
		for range updates {
			if !s.Upsert(p, schema, values) {
				t.Fatal("an upsert through a live place was dropped")
			}
		}
	})
	if got > updates*sizeClass || got <= updates*below {
		t.Fatalf("a 19-value upsert under a hold allocates %d B, want the %d-B size class", got/updates, sizeClass)
	}
}

// TestWithdraw: a withdrawal through a place removes the ref's offer and no
// other; the place is then dead, and neither a second withdrawal nor an upsert
// through it changes anything — an upsert never re-adds an offer. An export by
// reference gives a new place.
func TestWithdraw(t *testing.T) {
	s := NewService(nil)
	seven := nodeOffer(7, 100, 512)
	if _, err := s.ExportBatch([]Offer{seven, seven, seven}); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("a batch of three offers for one ref left %d, want the last", got)
	}
	p, err := s.ExportKeyed(seven)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportKeyed(nodeOffer(8, 100, 512)); err != nil {
		t.Fatal(err)
	}
	if !s.Withdraw(p) {
		t.Fatal("Withdraw removed nothing")
	}
	v := s.Version()
	if s.Withdraw(p) || upsertOffer(s, p, seven) || s.Withdraw(Place{}) || upsertOffer(s, Place{}, seven) || s.Version() != v {
		t.Fatal("a dead or zero place wrote to the index")
	}
	if got := s.Count(); got != 1 || s.All("")[0].Ref != nodeRef(8) {
		t.Fatalf("Count = %d after the withdrawal, want node 8's offer only", got)
	}
	if again, err := s.ExportKeyed(seven); err != nil || again == p || !upsertOffer(s, again, seven) {
		t.Fatalf("re-export = %v, %v; want a live place other than the dead %v", again, err, p)
	}
	assertIndexConsistent(t, s)
}

func TestSelectDeterministicOrderWithoutPreference(t *testing.T) {
	s := NewService(nil)
	for i := 0; i < 20; i++ {
		if _, err := s.ExportKeyed(nodeOffer(i, 100, 512)); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.Select(Query{})
	b, _ := s.Select(Query{})
	for i := range a {
		if a[i].Seq() != b[i].Seq() {
			t.Fatal("Select order not deterministic")
		}
	}
	// Insertion order.
	for i := 1; i < len(a); i++ {
		if a[i-1].Seq() >= a[i].Seq() {
			t.Fatalf("not insertion-ordered: seq %d then %d", a[i-1].Seq(), a[i].Seq())
		}
	}
}

// TestCountAllTypes: the index holds one service type, so Count counts every
// live offer, and All returns every one whatever type it is asked for — its
// parameter is kept only for benchmark/.
func TestCountAllTypes(t *testing.T) {
	s := NewService(nil)
	for i := 1; i <= 2; i++ {
		if _, err := s.ExportKeyed(nodeOffer(i, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	for _, typ := range []string{"", "NodeStatus", "Printer"} {
		if got := s.All(typ); len(got) != 2 || got[0].Ref != nodeRef(1) || got[1].Ref != nodeRef(2) {
			t.Fatalf("All(%q) = %v, want both offers", typ, got)
		}
	}
}

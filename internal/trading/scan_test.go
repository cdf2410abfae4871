package trading

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"integrade/internal/constraint"
)

// referenceSelect answers q by brute force, sharing nothing with scan: the
// offer in every slot of the snapshot, the expired dropped, sorted by seq,
// filtered by Expr.Eval.
func referenceSelect(t *testing.T, s *Service, q Query) []*Offer {
	t.Helper()
	now := s.now()
	var live []*Offer
	for _, st := range slotOffers(s) {
		if !st.expired(now) {
			live = append(live, &st.Offer)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	matched := live
	if q.Constraint != "" {
		cons, err := constraint.Compile(q.Constraint)
		if err != nil {
			t.Fatal(err)
		}
		matched = nil
		for _, o := range live {
			if ok, err := cons.Eval(o.Properties); err == nil && ok {
				matched = append(matched, o)
			}
		}
	}
	return matched
}

// firstNodes returns the node numbers 0 to n-1.
func firstNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestScanMatchesBruteForce is the differential test of filter-before-merge:
// on seeded fleets built through every write path, Select must return copies
// of the offers the brute-force reference does, in the same order,
// VisitMatchSet the very offers, and All copies of them all unfiltered.
func TestScanMatchesBruteForce(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for _, fleet := range []struct {
		name  string
		refs  []int // the exporting nodes; an export replaces its node's offer
		count int
	}{
		{"all-shards", firstNodes(1500), 2000},
		{"sparse-shards", firstNodes(9), 300},
		{"empty", nil, 0},
	} {
		t.Run(fleet.name, func(t *testing.T) {
			now := base
			s := NewService(func() time.Time { return now })
			rng := rand.New(rand.NewSource(int64(fleet.count) + 17))
			node := func() int { return fleet.refs[rng.Intn(len(fleet.refs))] }
			offer := func() Offer {
				o := nodeOffer(node(), float64(rng.Intn(5)*250), float64(rng.Intn(3)*512))
				switch rng.Intn(6) {
				case 0:
					o.Properties = constraint.Properties{"mips": constraint.String("fast")}.Record() // wrong kind, no os
				case 1:
					o.Properties = nil
				}
				if rng.Intn(3) == 0 {
					o.Expires = base.Add(time.Minute) // dead by query time, never compacted
				}
				return o
			}
			for exported := 0; exported < fleet.count; {
				if rng.Intn(4) == 0 {
					if _, err := s.ExportKeyed(offer()); err != nil {
						t.Fatal(err)
					}
					exported++
				} else {
					batch := make([]Offer, 1+rng.Intn(2)*rng.Intn(40))
					for i := range batch {
						batch[i] = offer()
					}
					if _, err := s.ExportBatch(batch); err != nil {
						t.Fatal(err)
					}
					exported += len(batch)
				}
				if rng.Intn(10) == 0 {
					withdrawRef(s, nodeRef(node())) // may hold nothing
				}
			}
			now = base.Add(2 * time.Minute)
			assertIndexConsistent(t, s)
			assertMatchesBruteForce(t, s, fleet.count > 0)
		})
	}
}

// TestScanBlockBoundaries runs the same comparison where visitSet's blocks begin
// and end: an index holding exactly 0, 1, N−1, N, N+1 and
// 2N+3 offers for a block of N, so an empty, a partial, an exact and a
// multi-block snapshot with a partial tail are each walked, filled three ways:
// every offer live and matching every satisfiable query, the first block's
// worth expired (a block nothing survives stage one of), and a seeded mix of
// live, expired, property-less and wrong-kind offers.
func TestScanBlockBoundaries(t *testing.T) {
	const n = constraint.BlockSize
	base := time.Unix(1_700_000_000, 0)
	for _, size := range []int{0, 1, n - 1, n, n + 1, 2*n + 3} {
		for _, fill := range []string{"all-match", "first-block-expired", "mixed"} {
			t.Run(fmt.Sprintf("%d/%s", size, fill), func(t *testing.T) {
				now := base
				s := NewService(func() time.Time { return now })
				rng := rand.New(rand.NewSource(int64(size)))
				for i, node := range firstNodes(size) {
					o := nodeOffer(node, 1000, 512)
					if fill == "first-block-expired" && i < n || fill == "mixed" && rng.Intn(3) == 0 {
						o.Expires = base.Add(time.Minute) // dead by query time, never compacted
					}
					if fill == "mixed" {
						switch rng.Intn(5) {
						case 0:
							o.Properties = constraint.Properties{"mips": constraint.String("fast")}.Record()
						case 1:
							o.Properties = nil
						case 2:
							o.Properties = constraint.Properties{"mips": constraint.Number(100), "ram": constraint.Number(2048)}.Record()
						}
					}
					if _, err := s.ExportBatch([]Offer{o}); err != nil {
						t.Fatal(err)
					}
				}
				now = base.Add(2 * time.Minute)
				if size > 0 {
					if got := len(s.snap.Load().slots); got != size {
						t.Fatalf("the index holds %d offers, want %d: expired ones must stay for the scan to skip", got, size)
					}
				}
				assertMatchesBruteForce(t, s, fill == "all-match" && size > 0)
				if fill == "all-match" {
					got, err := s.Select(Query{Constraint: "mips >= 250 and ram >= 512 and os == 'linux'"})
					if err != nil || len(got) != size {
						t.Fatalf("%d of %d offers match, %v: every one should", len(got), size, err)
					}
				}
			})
		}
	}
}

// assertMatchesBruteForce holds every read path built on visitSet to the
// brute force: Select must return copies of the offers referenceSelect does,
// in the same order, VisitMatchSet over each query alone the very offers in
// whatever order, one VisitMatchSet over every query the same sets again, and
// All and Count the same offers unfiltered, All as copies.
func assertMatchesBruteForce(t *testing.T, s *Service, nonEmpty bool) {
	t.Helper()
	var (
		cons  []string
		wants [][]*Offer
	)
	for _, q := range []Query{
		{},
		{Constraint: "mips >= 500"},
		{Constraint: "mips >= 250 and ram >= 512 and os == 'linux'"},
		{Constraint: "mips == 'fast'"},
		{Constraint: "gpu > 1"},
		{Constraint: "mips >= 0"},
	} {
		want := referenceSelect(t, s, q)
		got, err := s.Select(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		assertCopies(t, fmt.Sprintf("Select %+v", q), got, want)
		assertVisitYields(t, s, q, want)
		cons, wants = append(cons, q.Constraint), append(wants, want)
		if nonEmpty && q.Constraint == "mips >= 0" && len(want) == 0 {
			t.Fatalf("%+v matched nothing: the fleet does not exercise the scan", q)
		}
	}
	assertVisitSetYields(t, s, cons, wants)

	want := referenceSelect(t, s, Query{})
	assertCopies(t, "All", s.All(""), want)
	if got := s.Count(); got != len(want) {
		t.Fatalf("Count = %d, brute force %d", got, len(want))
	}
}

// assertCopies checks that got holds copies of the offers of want, in order:
// the same seq, reference, expiry and values, in a record of got's own.
func assertCopies(t *testing.T, what string, got []Offer, want []*Offer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d offers, brute force %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := &got[i]
		gSchema, gVals := g.Properties.Parts()
		wSchema, wVals := w.Properties.Parts()
		if g.seq != w.seq || g.Ref != w.Ref || !g.Expires.Equal(w.Expires) || gSchema != wSchema || !slices.Equal(gVals, wVals) {
			t.Fatalf("%s: position %d is seq %d of %v, brute force seq %d of %v (or their expiries or values differ)", what, i, g.seq, g.Ref, w.seq, w.Ref)
		}
		if g.Properties == w.Properties || len(gVals) > 0 && &gVals[0] == &wVals[0] {
			t.Fatalf("%s: position %d, seq %d, shares its record or values with the index", what, i, g.seq)
		}
	}
}

// assertVisitYields checks the one-constraint walk against the brute force:
// VisitMatchSet over q's constraint alone yields exactly the offers want
// holds, each once and with met 1, and sorting them by Seq gives want's order
// back.
func assertVisitYields(t *testing.T, s *Service, q Query, want []*Offer) {
	t.Helper()
	var visited []*Offer
	bad := s.VisitMatchSet([]string{q.Constraint}, func(o *Offer, met uint64) {
		if met != 1 {
			t.Fatalf("%+v: seq %d yielded with bits %b, want 1", q, o.Seq(), met)
		}
		visited = append(visited, o)
	})
	if bad != 0 {
		t.Fatalf("%+v: the constraint does not compile", q)
	}
	sort.Slice(visited, func(i, j int) bool { return visited[i].Seq() < visited[j].Seq() })
	if !slices.Equal(visited, want) {
		t.Fatalf("%+v: visit yields %d offers, brute force %d (or others)", q, len(visited), len(want))
	}
}

// assertVisitSetYields checks the set visitor against the brute force: one
// VisitMatchSet over cons yields each offer once at most, and the offers it
// yields with bit c set, sorted by Seq, are want[c].
func assertVisitSetYields(t *testing.T, s *Service, cons []string, want [][]*Offer) {
	t.Helper()
	got := make([][]*Offer, len(cons))
	seen := make(map[*Offer]bool)
	bad := s.VisitMatchSet(cons, func(o *Offer, met uint64) {
		if seen[o] {
			t.Fatalf("the set visit yielded seq %d twice", o.Seq())
		}
		seen[o] = true
		for c := range cons {
			if met&(1<<c) != 0 {
				got[c] = append(got[c], o)
			}
		}
	})
	if bad != 0 {
		t.Fatalf("constraints %b of %q do not compile", bad, cons)
	}
	for c := range cons {
		slices.SortFunc(got[c], func(a, b *Offer) int { return a.Seq() - b.Seq() })
		if !slices.Equal(got[c], want[c]) {
			t.Fatalf("%q: the set visit yields %d offers, brute force %d (or others)", cons[c], len(got[c]), len(want[c]))
		}
	}
}

// TestVisitMatchSetRejectsBadConstraint: a constraint that does not compile
// has its bit set in bad and matches nothing, alone or beside one that
// compiles.
func TestVisitMatchSetRejectsBadConstraint(t *testing.T) {
	s := NewService(nil)
	if _, err := s.ExportKeyed(nodeOffer(1, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if bad := s.VisitMatchSet([]string{"mips >="}, func(*Offer, uint64) { t.Fatal("visited an offer") }); bad != 1 {
		t.Fatalf("bad = %b for a constraint that does not compile, want 1", bad)
	}
	visited := 0
	bad := s.VisitMatchSet([]string{"", "mips >="}, func(o *Offer, met uint64) {
		if met != 1 {
			t.Fatalf("seq %d yielded with bits %b, want 1", o.Seq(), met)
		}
		visited++
	})
	if bad != 1<<1 || visited != 1 {
		t.Fatalf("bad = %b after %d offers, want 10 after 1", bad, visited)
	}
}

// visitOne is VisitMatchSet over one constraint, for tests that walk one: fn
// gets each match, and a constraint that does not compile is an error.
func visitOne(s *Service, cons string, fn func(*Offer)) error {
	if s.VisitMatchSet([]string{cons}, func(o *Offer, _ uint64) { fn(o) }) != 0 {
		return fmt.Errorf("constraint %q does not compile", cons)
	}
	return nil
}

// TestReexportCopiesRecord: offers read from one trader can be exported to
// another as they are. ExportBatch, ExportKeyed and Export copy the values
// into an offer of the trader's own, as Upsert does, so an exporter that
// rewrites its value array once the export has returned leaves the offer as it
// was.
func TestReexportCopiesRecord(t *testing.T) {
	a, b := NewService(nil), NewService(nil)
	for i := 0; i < 5; i++ {
		if _, err := a.ExportKeyed(nodeOffer(i, float64(100*i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	offers := a.All("")
	if _, err := b.ExportBatch(offers); err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if _, err := b.ExportKeyed(o); err != nil {
			t.Fatal(err)
		}
	}
	got := b.All("")
	if len(got) != len(offers) {
		t.Fatalf("second trader holds %d offers, want %d", len(got), len(offers))
	}
	for i, o := range got {
		mine, theirs := maps.Collect(o.Properties.All()), maps.Collect(offers[i].Properties.All())
		if len(mine) != 3 || !maps.Equal(mine, theirs) || o.Ref != offers[i].Ref {
			t.Fatalf("offer %d was not re-exported as it was", i)
		}
		_, mineVals := o.Properties.Parts()
		if _, theirVals := offers[i].Properties.Parts(); &mineVals[0] == &theirVals[0] {
			t.Fatalf("offer %d shares the first trader's values: ExportKeyed did not copy them", i)
		}
		if want := len(offers) + i + 1; o.Seq() != want {
			t.Fatalf("offer %d has seq %d, want %d: the second trader numbers its own", i, o.Seq(), want)
		}
	}
	if first := a.All(""); first[0].Seq() != 1 {
		t.Fatalf("re-exporting renumbered the first trader's offer to %d", first[0].Seq())
	}

	// The exporter rewrites its array after each export returns.
	schema, values := recordParts(nodeOffer(9, 900, 512).Properties)
	want := maps.Collect(schema.Record(slices.Clone(values)).All())
	exports := map[string]func() error{
		"ExportKeyed": func() error {
			_, err := b.ExportKeyed(Offer{Ref: nodeRef(9), Properties: schema.Record(values)})
			return err
		},
		"Export": func() error {
			b.Export(nodeRef(9), time.Time{}, schema, values)
			return nil
		},
		"ExportBatch": func() error {
			_, err := b.ExportBatch([]Offer{{Ref: nodeRef(9), Properties: schema.Record(values)}})
			return err
		},
	}
	for _, name := range []string{"ExportKeyed", "Export", "ExportBatch"} {
		_, fresh := recordParts(nodeOffer(9, 900, 512).Properties)
		copy(values, fresh)
		if err := exports[name](); err != nil {
			t.Fatal(err)
		}
		for i := range values {
			values[i] = constraint.Number(-1)
		}
		nine, err := b.Select(Query{Constraint: "mips == 900"})
		if err != nil || len(nine) != 1 || !maps.Equal(maps.Collect(nine[0].Properties.All()), want) {
			t.Fatalf("%s: after the exporter rewrote its array the index holds %+v, %v; want node 9's offer reading %v", name, nine, err, want)
		}
	}

	// The copy goes into an offer the index retired: once a re-export has
	// retired one, re-exporting allocates nothing.
	o := offers[0]
	_, _ = b.ExportKeyed(o)
	if allocs := mallocs(func() {
		for range 100 {
			_, _ = b.ExportKeyed(o)
		}
	}); allocs != 0 {
		t.Fatalf("100 re-exports of an offer allocate %d times: they store new offers", allocs)
	}
}

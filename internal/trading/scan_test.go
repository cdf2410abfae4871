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
// offer in every slot of every shard snapshot, the expired dropped, sorted by
// seq, filtered by Expr.Eval.
func referenceSelect(t *testing.T, s *Service, q Query) []*Offer {
	t.Helper()
	ts := s.typeIndex(q.ServiceType)
	if ts == nil {
		return nil
	}
	now := s.now()
	var live []*Offer
	for i := range ts.shards {
		for _, st := range slotOffers(&ts.shards[i]) {
			if !st.expired(now) {
				live = append(live, &st.Offer)
			}
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	matched := live
	if q.Constraint != "" {
		cons := constraint.MustCompile(q.Constraint)
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
// on seeded fleets built through every write path, SelectPointers must return
// the very pointers the brute-force reference does, in the same order, and
// All the same offers unfiltered.
func TestScanMatchesBruteForce(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for _, fleet := range []struct {
		name  string
		refs  []int // the exporting nodes; an export replaces its node's offer
		count int
	}{
		{"all-shards", firstNodes(1500), 2000},
		{"sparse-shards", firstNodes(9), 300},
		{"one-shard", shardmates(0, 60), 200},
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

			if len(fleet.refs) > shardsPerType {
				ts := s.typeIndex("NodeStatus")
				for i := range ts.shards {
					if len(ts.shards[i].snap.Load().slots) == 0 {
						t.Fatalf("shard %d is empty; the fleet is meant to cover all %d", i, shardsPerType)
					}
				}
			}

			assertMatchesBruteForce(t, s, fleet.count > 0)
		})
	}
}

// TestScanBlockBoundaries runs the same comparison where visit's blocks begin
// and end: one shard holding exactly 0, 1, N−1, N, N+1 and
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
				for i, node := range shardmates(0, size) {
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
				if ts := s.typeIndex("NodeStatus"); size > 0 {
					if got := len(ts.shards[refShard(nodeRef(0))].snap.Load().slots); got != size {
						t.Fatalf("the shard holds %d offers, want %d: expired ones must stay for the scan to skip", got, size)
					}
				}
				assertMatchesBruteForce(t, s, fill == "all-match" && size > 0)
				if fill == "all-match" {
					got, err := s.SelectPointers(Query{ServiceType: "NodeStatus", Constraint: "mips >= 250 and ram >= 512 and os == 'linux'"})
					if err != nil || len(got) != size {
						t.Fatalf("%d of %d offers match, %v: every one should", len(got), size, err)
					}
				}
			})
		}
	}
}

// assertMatchesBruteForce holds every read path built on visit to the brute
// force: SelectPointers must return the very pointers referenceSelect does, in
// the same order, VisitMatches the same set in whatever order, one
// VisitMatchSet over every query the same sets again, and All and Count the
// same offers unfiltered.
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
		q.ServiceType = "NodeStatus"
		want := referenceSelect(t, s, q)
		got, err := s.SelectPointers(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d offers, brute force %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: position %d is seq %d, brute force seq %d", q, i, got[i].seq, want[i].seq)
			}
		}
		assertVisitYields(t, s, q, got)
		cons, wants = append(cons, q.Constraint), append(wants, got)
		if nonEmpty && q.Constraint == "mips >= 0" && len(got) == 0 {
			t.Fatalf("%+v matched nothing: the fleet does not exercise the scan", q)
		}
	}
	assertVisitSetYields(t, s, cons, wants)

	all := s.All("NodeStatus")
	want := referenceSelect(t, s, Query{ServiceType: "NodeStatus"})
	if len(all) != len(want) || s.Count("NodeStatus") != len(want) {
		t.Fatalf("All = %d offers, Count = %d, brute force %d", len(all), s.Count("NodeStatus"), len(want))
	}
	for i := range all {
		if all[i].seq != want[i].seq || all[i].Properties != want[i].Properties {
			t.Fatalf("All: position %d is seq %d, brute force seq %d", i, all[i].seq, want[i].seq)
		}
	}
}

// assertVisitYields checks the visitor against the query path built on the
// same walk: VisitMatches yields exactly the offers SelectPointers returned,
// each once, and sorting them by Seq gives SelectPointers' order back.
func assertVisitYields(t *testing.T, s *Service, q Query, want []*Offer) {
	t.Helper()
	var visited []*Offer
	err := s.VisitMatches(q.ServiceType, q.Constraint, func(o *Offer) {
		visited = append(visited, o)
	})
	if err != nil {
		t.Fatalf("%+v: VisitMatches: %v", q, err)
	}
	sort.Slice(visited, func(i, j int) bool { return visited[i].Seq() < visited[j].Seq() })
	if !slices.Equal(visited, want) {
		t.Fatalf("%+v: visit yields %d offers, SelectPointers %d (or others)", q, len(visited), len(want))
	}
}

// assertVisitSetYields checks the set visitor against the query path: one
// VisitMatchSet over cons yields each offer once at most, and the offers it
// yields with bit c set, sorted by Seq, are want[c].
func assertVisitSetYields(t *testing.T, s *Service, cons []string, want [][]*Offer) {
	t.Helper()
	got := make([][]*Offer, len(cons))
	seen := make(map[*Offer]bool)
	bad := s.VisitMatchSet("NodeStatus", cons, func(o *Offer, met uint64) {
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
			t.Fatalf("%q: the set visit yields %d offers, SelectPointers %d (or others)", cons[c], len(got[c]), len(want[c]))
		}
	}
}

// TestVisitMatchesRejectsBadConstraint: a constraint that does not compile is
// the query's error, reported before anything is visited.
func TestVisitMatchesRejectsBadConstraint(t *testing.T) {
	s := NewService(nil)
	if _, err := s.ExportKeyed(nodeOffer(1, 100, 100)); err != nil {
		t.Fatal(err)
	}
	err := s.VisitMatches("NodeStatus", "mips >=", func(*Offer) { t.Fatal("visited an offer") })
	if err == nil {
		t.Fatal("VisitMatches accepted a constraint that does not compile")
	}
	if err := s.VisitMatches("NoSuchType", "", func(*Offer) { t.Fatal("visited an offer") }); err != nil {
		t.Fatalf("unknown type: %v", err)
	}
}

// TestReexportSharesRecord: offers read from one trader can be exported to
// another as they are — the record's values are immutable, so both may hold
// them: the second trader copies the 32-byte header and nothing behind it.
func TestReexportSharesRecord(t *testing.T) {
	a, b := NewService(nil), NewService(nil)
	for i := 0; i < 5; i++ {
		if _, err := a.ExportKeyed(nodeOffer(i, float64(100*i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	offers := a.All("NodeStatus")
	if _, err := b.ExportBatch(offers); err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if _, err := b.ExportKeyed(o); err != nil {
			t.Fatal(err)
		}
	}
	got := b.All("NodeStatus")
	if len(got) != len(offers) {
		t.Fatalf("second trader holds %d offers, want %d", len(got), len(offers))
	}
	for i, o := range got {
		mine, theirs := maps.Collect(o.Properties.All()), maps.Collect(offers[i].Properties.All())
		if len(mine) != 3 || !maps.Equal(mine, theirs) || o.Ref != offers[i].Ref {
			t.Fatalf("offer %d was not re-exported as it was", i)
		}
		if want := len(offers) + i + 1; o.Seq() != want {
			t.Fatalf("offer %d has seq %d, want %d: the second trader numbers its own", i, o.Seq(), want)
		}
	}
	if first := a.All("NodeStatus"); first[0].Seq() != 1 {
		t.Fatalf("re-exporting renumbered the first trader's offer to %d", first[0].Seq())
	}
	// One allocation per export — the stored offer, header inline: the value
	// array is never copied.
	o := offers[0]
	if allocs := testing.AllocsPerRun(100, func() { _, _ = b.ExportKeyed(o) }); allocs > 1 {
		t.Fatalf("re-exporting an offer allocates %v times: its record is being copied", allocs)
	}
}

package trading

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/testutil/allocbudget"
)

func benchTrader(n int) *Service {
	s := NewService(nil)
	for i := 0; i < n; i++ {
		_, _ = s.ExportKeyed(Offer{
			Ref: orb.ObjectRef{
				Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("n%d", i)},
				Key:      "lrm",
			},
			Properties: constraint.Properties{
				"mips_free": constraint.Number(float64(100 + i%1000)),
				"ram_free":  constraint.Number(float64(64 + i%512)),
				"os":        constraint.String("linux"),
			}.Record(),
		})
	}
	return s
}

func BenchmarkSelect100Offers(b *testing.B) {
	s := benchTrader(100)
	q := Query{Constraint: "mips_free >= 500 and os == 'linux'"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelect1000Offers(b *testing.B) {
	s := benchTrader(1000)
	q := Query{Constraint: "mips_free >= 500"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelect10kOffers is the ordered query over a fleet: 10^4 offers,
// about half of them matching, copied out of the index with their values.
func BenchmarkSelect10kOffers(b *testing.B) {
	s := benchTrader(10000)
	q := Query{Constraint: "mips_free >= 600 and os == 'linux'"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSelectUsesCompileCache pins the regression the cache fixes: a repeated
// query must not recompile its constraint. The cache is package-global, so
// assert on stat deltas.
func TestSelectUsesCompileCache(t *testing.T) {
	s := benchTrader(10)
	q := Query{Constraint: "mips_free >= 500 and exist cache_probe_tag"}
	if _, err := s.Select(q); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := compileCache.Stats()
	if _, err := s.Select(q); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := compileCache.Stats()
	if misses1 != misses0 {
		t.Fatalf("repeated Select recompiled: misses %d -> %d", misses0, misses1)
	}
	if hits1-hits0 != 1 {
		t.Fatalf("repeated Select should hit the cache for its constraint: hits %d -> %d", hits0, hits1)
	}
}

// BenchmarkSelectCacheMiss measures the uncached path for comparison with
// the Select benchmarks above (which, querying one source repeatedly, stay
// on the hit path): every iteration presents a constraint source the cache
// has evicted by the time it comes around again.
func BenchmarkSelectCacheMiss(b *testing.B) {
	s := benchTrader(100)
	distinct := constraint.DefaultCacheSize * 4
	queries := make([]Query, distinct)
	for i := range queries {
		queries[i] = Query{
			Constraint: fmt.Sprintf("mips_free >= %d and os == 'linux'", 500+i),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(queries[i%distinct]); err != nil {
			b.Fatal(err)
		}
	}
}

// upsertFleet is a trader of 10^4 offers, with the offers it holds and their
// places in a fixed shuffled order: the benchmark's fleets update in a
// seed-shuffled order, so each upsert finds its ref's entry and slot cold, as
// a walk in index order would not.
func upsertFleet() (*Service, []Offer, []Place) {
	s := benchTrader(10000)
	all := s.All("")
	offers, places := make([]Offer, len(all)), make([]Place, len(all))
	for i, j := range sim.NewRNG(1).Perm(len(all)) {
		offers[i] = all[j]
		places[i], _ = s.ExportKeyed(all[j])
	}
	return s, offers, places
}

// BenchmarkExportKeyedUpsert is a keyed upsert by reference at fleet size: the
// byRef probe, then the store.
func BenchmarkExportKeyedUpsert(b *testing.B) {
	s, offers, _ := upsertFleet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExportKeyed(offers[i%len(offers)]); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetValues is upsertFleet's offers taken apart for Upsert: their one schema
// and each offer's values.
func fleetValues(offers []Offer) (*constraint.Schema, [][]constraint.Value) {
	var schema *constraint.Schema
	values := make([][]constraint.Value, len(offers))
	for i, o := range offers {
		schema, values[i] = recordParts(o.Properties)
	}
	return schema, values
}

// BenchmarkPlaceUpsert is the Information Update Protocol's inner loop at fleet
// size, an upsert through the node's place: the trader's share of
// BenchmarkLoopbackUpdate10k in internal/grm.
func BenchmarkPlaceUpsert(b *testing.B) {
	s, offers, places := upsertFleet()
	schema, values := fleetValues(offers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Upsert(places[i%len(places)], time.Time{}, schema, values[i%len(values)]) {
			b.Fatal("an upsert through a live place was dropped")
		}
	}
}

// BenchmarkExportFirst10k is a fleet's registration at the trader, as a fresh
// GRM learns its cluster: 10^4 first exports by reference into an empty index,
// in upsertFleet's shuffled order, one fleet an iteration.
func BenchmarkExportFirst10k(b *testing.B) {
	_, offers, _ := upsertFleet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewService(nil)
		for j := range offers {
			if _, err := s.ExportKeyed(offers[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWithdraw is a node leaving and coming back: a Withdraw through a
// random node's place and the node's export by reference again, among 100
// offers and among 10^4. A withdrawal rebuilds the snapshot, so it copies
// every slot of the index.
func BenchmarkWithdraw(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("offers=%d", n), func(b *testing.B) {
			s := benchTrader(n)
			offers := s.All("")
			places := make([]Place, n)
			for i, o := range offers {
				places[i], _ = s.ExportKeyed(o)
			}
			rng := sim.NewRNG(1)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				i := rng.Intn(n)
				if !s.Withdraw(places[i]) {
					b.Fatal("withdrawing through a live place removed nothing")
				}
				places[i], _ = s.ExportKeyed(offers[i])
			}
		})
	}
}

// TestExportKeyedAllocBudget holds the upserts of BenchmarkExportKeyedUpsert
// and BenchmarkPlaceUpsert, and the first exports of BenchmarkExportFirst10k,
// to the `export-keyed`, `upsert-place`, `upsert-place-steady` and
// `export-first` rows of testdata/alloc_budget.txt.
func TestExportKeyedAllocBudget(t *testing.T) {
	path := filepath.Join("testdata", "alloc_budget.txt")
	s, offers, places := upsertFleet()
	schema, values := fleetValues(offers)
	// A fleet every place of which has been upserted twice.
	steady, _, steadyPlaces := upsertFleet()
	for range 2 {
		for i, p := range steadyPlaces {
			if !steady.Upsert(p, time.Time{}, schema, values[i]) {
				t.Fatal("an upsert through a live place was dropped")
			}
		}
	}
	fresh := NewService(nil)
	upserts := map[string]func(i int) bool{
		"export-keyed": func(i int) bool { _, err := s.ExportKeyed(offers[i]); return err == nil },
		"upsert-place": func(i int) bool { return s.Upsert(places[i], time.Time{}, schema, values[i]) },
		"upsert-place-steady": func(i int) bool {
			return steady.Upsert(steadyPlaces[i], time.Time{}, schema, values[i])
		},
		// 2001 refs' first offers into a service that has none.
		"export-first": func(i int) bool { _, err := fresh.ExportKeyed(offers[i]); return err == nil },
	}
	for _, row := range allocbudget.Parse(t, path) {
		upsert := upserts[row.Name]
		if upsert == nil {
			t.Fatalf("%s: unknown row %q (known: export-keyed, upsert-place, upsert-place-steady, export-first)", path, row.Name)
		}
		i := 0
		got := testing.AllocsPerRun(2000, func() {
			if !upsert(i % len(offers)) {
				t.Fatal("the upsert failed")
			}
			i++
		})
		if got > row.Budget {
			t.Fatalf("%s: %s allocates %.2f times, budget %.0f", path, row.Name, got, row.Budget)
		}
		t.Logf("%s: %s allocates %.2f times, budget %.0f", path, row.Name, got, row.Budget)
	}
}

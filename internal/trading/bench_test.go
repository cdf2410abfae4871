package trading

import (
	"fmt"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

func benchTrader(n int) *Service {
	s := NewService(nil)
	for i := 0; i < n; i++ {
		_, _ = s.Export(Offer{
			ServiceType: "NodeStatus",
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
	q := Query{ServiceType: "NodeStatus", Constraint: "mips_free >= 500 and os == 'linux'", Preference: "mips_free"}
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
	q := Query{ServiceType: "NodeStatus", Constraint: "mips_free >= 500", Preference: "mips_free", Limit: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectPointers10kOffers is the scan a GRM snapshot miss pays for:
// 10^4 offers spread over all 64 shards, about half of them matching, no
// preference, no copies.
func BenchmarkSelectPointers10kOffers(b *testing.B) {
	s := benchTrader(10000)
	q := Query{ServiceType: "NodeStatus", Constraint: "mips_free >= 600 and os == 'linux'"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SelectPointers(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSelectUsesCompileCache pins the regression the cache fixes: a repeated
// query must not recompile its constraint and preference. The cache is
// package-global, so assert on stat deltas.
func TestSelectUsesCompileCache(t *testing.T) {
	s := benchTrader(10)
	q := Query{ServiceType: "NodeStatus", Constraint: "mips_free >= 500 and exist cache_probe_tag", Preference: "mips_free + 0"}
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
	if hits1-hits0 != 2 {
		t.Fatalf("repeated Select should hit the cache for constraint and preference: hits %d -> %d", hits0, hits1)
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
			ServiceType: "NodeStatus",
			Constraint:  fmt.Sprintf("mips_free >= %d and os == 'linux'", 500+i),
			Preference:  "mips_free",
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

// BenchmarkExportKeyedUpsert is the Information Update Protocol's inner loop at
// fleet size: 10^4 offers, ~156 a shard, each ref re-exporting its one offer in
// turn: the trader's share of BenchmarkLoopbackUpdate10k in internal/grm.
func BenchmarkExportKeyedUpsert(b *testing.B) {
	const fleet = 10000
	s := benchTrader(fleet)
	offers := s.All("NodeStatus")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExportKeyed(offers[i%fleet]); err != nil {
			b.Fatal(err)
		}
	}
}

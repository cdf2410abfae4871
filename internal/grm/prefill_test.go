package grm

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// TestPrefillMatchesLazyFill fills seeded sets of constraints two ways — one
// shared walk (prefill), and one VisitMatches fill per constraint — and
// requires the same candidates in the same order from every entry's best(),
// the same minExpires, and no entry for a constraint that does not compile.
// The sets hold duplicates, a constraint nothing matches and one that does
// not compile, and run to more than trading.MaxVisitSet distinct constraints
// (more than one walk); the offers lack properties or hold the wrong kind now
// and then, and half of those that expire are past their expiry, unswept, in
// shards whose sweep bound has passed. Each of the four policies runs every
// set size.
func TestPrefillMatchesLazyFill(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return BestFit{} },
		func() Policy { return UsageAware{} },
		func() Policy { return Random{} },
		func() Policy { return &RoundRobin{} },
	}
	seed := int64(0)
	for _, size := range []int{2, 16, trading.MaxVisitSet + 6} {
		for _, policy := range policies {
			seed++
			rng := sim.NewRNG(seed)
			clock := sim.NewVirtualClock()
			g := New("prefill", clock, orb.New(), WithPolicy(policy()))
			expired := prefillFleet(t, g, rng, 500+rng.Intn(1500))
			clock.Advance(50 * time.Second)
			if expired == 0 {
				t.Fatalf("seed %d: no offer expired", seed)
			}

			var batch []*appInfo
			distinct := map[string]bool{}
			add := func(cons string) {
				batch = append(batch, &appInfo{constraint: cons})
				distinct[cons] = true
			}
			add("mips_free >= 1000000")
			add("mips_free >=")
			for len(distinct) < 2+size {
				add(randomConstraint(rng))
				if rng.Bool(0.3) {
					add(batch[rng.Intn(len(batch))].constraint)
				}
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

			shared := g.newMatchCtx()
			shared.prefill(batch)
			good := 0
			for cons := range distinct {
				want, err := g.newMatchCtx().fill(cons)
				got := shared.entries[cons]
				if err != nil {
					if cons != "mips_free >=" {
						t.Fatalf("seed %d: %q: %v", seed, cons, err)
					}
					if got != nil {
						t.Fatalf("seed %d: %q does not compile (%v), yet prefill made an entry", seed, cons, err)
					}
					continue
				}
				good++
				if got == nil || !got.unused {
					t.Fatalf("seed %d: prefill made no unused entry for %q: %+v", seed, cons, got)
				}
				if !got.minExpires.Equal(want.minExpires) {
					t.Fatalf("seed %d, %q: minExpires %v, lazy fill %v", seed, cons, got.minExpires, want.minExpires)
				}
				if gotOrder, wantOrder := drain(got.rank), drain(want.rank); !slices.Equal(gotOrder, wantOrder) {
					t.Fatalf("seed %d, %q: prefill's %d candidates differ from the lazy fill's %d",
						seed, cons, len(gotOrder), len(wantOrder))
				}
			}
			for cons := range distinct {
				if shared.entries[cons] == nil {
					continue
				}
				for range 2 {
					if ent, err := shared.lookup(cons); err != nil || ent != shared.entries[cons] {
						t.Fatalf("seed %d: lookup of prefilled %q: %v, %v", seed, cons, ent, err)
					}
				}
			}
			if shared.misses != good || shared.hits != good {
				t.Fatalf("seed %d: two lookups each of %d prefilled entries counted %d misses, %d hits; want %d of each",
					seed, good, shared.misses, shared.hits, good)
			}
		}
	}
}

// prefillFleet exports n offers in one batch: random free CPU, memory and
// platform, each property missing or of the wrong kind now and then, and a
// quarter of them never expiring, the rest within 100 s. It returns how many
// expire within 50 s.
func prefillFleet(t *testing.T, g *GRM, rng *sim.RNG, n int) int {
	t.Helper()
	now := g.clock.Now()
	var expired int
	offers := make([]trading.Offer, n)
	for i := range offers {
		props := constraint.Properties{PropNode: constraint.String(fmt.Sprintf("n%04d", i))}
		maybe := func(name string, v constraint.Value) {
			switch u := rng.Float64(); {
			case u < 0.05:
			case u < 0.08:
				props[name] = constraint.String("?")
			default:
				props[name] = v
			}
		}
		maybe(PropMIPSFree, constraint.Number(float64(rng.Intn(3000))))
		maybe(PropRAMFree, constraint.Number(float64(rng.Intn(4096))))
		maybe(PropOS, constraint.String(sim.Pick(rng, []string{"linux", "windows"})))
		maybe(PropDedicated, constraint.Bool(rng.Bool(0.2)))
		maybe(PropOwnerBusy, constraint.Bool(rng.Bool(0.3)))
		maybe(PropPredictedIdle, constraint.Number(float64(rng.Intn(4)*600)))
		offers[i] = trading.Offer{
			ServiceType: NodeStatusType,
			Ref:         orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprint(i)}, Key: "lrm"},
			Properties:  props.Record(),
		}
		if rng.Bool(0.75) {
			ttl := time.Duration(1+rng.Intn(100)) * time.Second
			offers[i].Expires = now.Add(ttl)
			if ttl <= 50*time.Second {
				expired++
			}
		}
	}
	if _, err := g.trader.ExportBatch(offers); err != nil {
		t.Fatal(err)
	}
	return expired
}

// randomConstraint is one to three clauses over free CPU, memory and the
// platform, joined by and, now and then an or.
func randomConstraint(rng *sim.RNG) string {
	clause := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s >= %d", PropMIPSFree, rng.Intn(3000))
		case 1:
			return fmt.Sprintf("%s < %d", PropRAMFree, rng.Intn(4096))
		case 2:
			return fmt.Sprintf("%s == '%s'", PropOS, sim.Pick(rng, []string{"linux", "windows"}))
		default:
			return fmt.Sprintf("(%s >= %d or %s != 'linux')", PropRAMFree, rng.Intn(4096), PropOS)
		}
	}
	cons := clause()
	for n := rng.Intn(3); n > 0; n-- {
		cons += " and " + clause()
	}
	return cons
}

// drain pulls a ranking's every candidate, best first.
func drain(r *ranking) []*trading.Offer {
	var out []*trading.Offer
	for o := range r.best() {
		out = append(out, o)
	}
	return out
}

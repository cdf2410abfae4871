package grm

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// TestPrefillMatchesLazyFill fills seeded sets of constraints two ways — one
// shared walk (prefill), and a lookup's one-constraint fill each — and
// requires the same candidates in the same order from every entry, the same
// minExpires, and no entry for a constraint that does not compile. The sets
// hold duplicates, a constraint nothing matches and one that does not
// compile, and run to more than trading.MaxVisitSet distinct constraints
// (more than one walk); the offers lack properties or hold the wrong kind now
// and then, and half of those that expire are past their expiry, unswept, in
// an index whose sweep bound has passed. Each of the four policies runs every
// set size.
//
// The entries of one walk are views of one heap, so the test pulls them
// interleaved, as a batch does: A, then B, then A again further, seeded
// pulls of any of them, a stateful policy's values() and a topology's
// settle() in between, every sequence checked against the lazy fill's. On a
// heap nothing has popped yet, draining a view must stop where its last
// member settles: a view with no members pops nothing, and one whose only
// member is the heap's worst key pops everything.
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

			shared, fresh := g.newMatchCtx(), g.newMatchCtx()
			shared.prefill(batch)
			fresh.prefill(batch)
			var good []string
			lazy := map[string][]*trading.Offer{}
			for _, cons := range slices.Sorted(maps.Keys(distinct)) {
				want, err := g.newMatchCtx().lookup(cons)
				got := shared.entry(cons)
				if err != nil {
					if cons != "mips_free >=" {
						t.Fatalf("seed %d: %q: %v", seed, cons, err)
					}
					if got != nil {
						t.Fatalf("seed %d: %q does not compile (%v), yet prefill made an entry", seed, cons, err)
					}
					continue
				}
				good = append(good, cons)
				if got == nil || !got.unused {
					t.Fatalf("seed %d: prefill made no unused entry for %q: %+v", seed, cons, got)
				}
				if !got.minExpires.Equal(want.minExpires) {
					t.Fatalf("seed %d, %q: minExpires %v, lazy fill %v", seed, cons, got.minExpires, want.minExpires)
				}
				lazy[cons] = drain(want.view)
				if got.n != len(lazy[cons]) {
					t.Fatalf("seed %d, %q: %d members, the lazy fill matches %d", seed, cons, got.n, len(lazy[cons]))
				}
				if msg := popsToLastMember(fresh.entry(cons).view, lazy[cons]); msg != "" {
					t.Fatalf("seed %d, %q: %s", seed, cons, msg)
				}
			}
			if shared.entry("mips_free >= 1000000").n != 0 {
				t.Fatalf("seed %d: the constraint nothing meets has members", seed)
			}
			worst := fresh.entry(good[0]).r
			if msg := popsToLastMember(onlyWorst(worst), []*trading.Offer{slices.MinFunc(worst.keys, compareKeys).offer}); msg != "" {
				t.Fatalf("seed %d, the view of the worst key: %s", seed, msg)
			}

			pullAndCheck := func(cons string, k int) {
				t.Helper()
				want := lazy[cons][:min(k, len(lazy[cons]))]
				if got := pull(shared.entry(cons).view, k); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %q: the first %d of prefill's candidates differ from the lazy fill's", seed, cons, k)
				}
			}
			a, b := good[0], good[1]
			pullAndCheck(a, 3)
			pullAndCheck(b, 5)
			pullAndCheck(a, 8)
			for range 2 * len(good) {
				cons := good[rng.Intn(len(good))]
				pullAndCheck(cons, rng.Intn(len(lazy[cons])+2))
			}
			c := good[rng.Intn(len(good))]
			if got, want := offerAddrs(shared.entry(c).values()), lazy[c]; !slices.EqualFunc(got, want, func(addr string, o *trading.Offer) bool { return addr == o.Ref.Endpoint.Addr }) {
				t.Fatalf("seed %d, %q: values() differs from the lazy fill's candidates", seed, c)
			}
			pullAndCheck(b, 2)
			shared.entry(good[rng.Intn(len(good))]).r.settle()
			for _, cons := range good {
				pullAndCheck(cons, len(lazy[cons])+1)
			}

			for _, cons := range good {
				for range 2 {
					if ent, err := shared.lookup(cons); err != nil || ent != shared.entry(cons) {
						t.Fatalf("seed %d: lookup of prefilled %q: %v, %v", seed, cons, ent, err)
					}
				}
			}
			if shared.misses != len(good) || shared.hits != len(good) {
				t.Fatalf("seed %d: two lookups each of %d prefilled entries counted %d misses, %d hits; want %d of each",
					seed, len(good), shared.misses, shared.hits, len(good))
			}
		}
	}
}

// popsToLastMember drains v on a copy of its ranking and reports what is
// wrong, if anything: the members must be want, in order, and the heap must
// end where the last of them settled — at its index in the settled order, or
// untouched if v has no members.
func popsToLastMember(v view, want []*trading.Offer) string {
	r := &ranking{keys: slices.Clone(v.r.keys), heap: v.r.heap}
	settled := slices.Clone(r.keys)
	slices.SortFunc(settled, compareKeys)
	last := len(settled)
	if i := slices.IndexFunc(settled, func(k rankKey) bool { return k.met&v.bit != 0 }); i >= 0 {
		last = i
	}
	if got := drain(view{r: r, bit: v.bit, n: v.n}); !slices.Equal(got, want) {
		return fmt.Sprintf("drained %d candidates, want %d (or in another order)", len(got), len(want))
	}
	if r.heap != last {
		return fmt.Sprintf("draining %d members left the heap at %d, want %d", v.n, r.heap, last)
	}
	return ""
}

// onlyWorst is the view, on a copy of r, whose one member is r's worst key.
func onlyWorst(r *ranking) view {
	c := &ranking{keys: slices.Clone(r.keys), heap: r.heap}
	const bit = 1 << 63
	worst := slices.MinFunc(c.keys, compareKeys).ord
	for i := range c.keys {
		if c.keys[i].met &^= bit; c.keys[i].ord == worst {
			c.keys[i].met |= bit
		}
	}
	return view{r: c, bit: bit, n: 1}
}

// offerAddrs is the endpoint address of each offer: prefillFleet's are unique.
func offerAddrs(offers []trading.Offer) []string {
	out := make([]string, len(offers))
	for i, o := range offers {
		out[i] = o.Ref.Endpoint.Addr
	}
	return out
}

// TestScratchOwnershipUnderConcurrentContexts backs the rule that a context
// finding the GRM's scratch taken allocates its own: contexts A and B fill at
// once, so at most one of them ranks in the scratch; B closes while A is still
// pulling, and C takes the buffer B handed back and ranks other keys in it. A's
// candidates must not change. Run it under -race.
func TestScratchOwnershipUnderConcurrentContexts(t *testing.T) {
	g := New("scratch", sim.NewVirtualClock(), orb.New(), WithPolicy(BestFit{}))
	defer g.Stop()
	prefillFleet(t, g, sim.NewRNG(3), 2000)
	const consA, consB, consC = "mips_free >= 1500", "ram_free < 2000", "os == 'linux'"
	ref, err := g.newMatchCtx().lookup(consA)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(ref.view)
	// Grow the scratch to hold every offer, so whoever takes it ranks in it.
	warm := g.newMatchCtx()
	if _, err := warm.lookup(""); err != nil {
		t.Fatal(err)
	}
	warm.close()

	fill := func(mc *matchCtx, cons string) view {
		ent, err := mc.lookup(cons)
		if err != nil {
			t.Error(err)
			return view{r: &ranking{}}
		}
		return ent.view
	}
	a, b := g.newMatchCtx(), g.newMatchCtx()
	var va view
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); va = fill(a, consA) }()
	go func() { defer wg.Done(); drain(fill(b, consB)) }()
	wg.Wait()

	half := pull(va, len(want)/2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		b.close()
		c := g.newMatchCtx()
		drain(fill(c, consC))
		c.close()
	}()
	var rest []*trading.Offer
	go func() {
		defer wg.Done()
		for o := range va.best().all() {
			rest = append(rest, o)
		}
	}()
	wg.Wait()
	if !slices.Equal(half, want[:len(half)]) || !slices.Equal(rest, want) {
		t.Fatalf("A's candidates changed while other contexts used the scratch")
	}
	a.close()
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
			Ref:        orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprint(i)}, Key: "lrm"},
			Properties: props.Record(),
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

// drain pulls a view's every candidate, best first.
func drain(v view) []*trading.Offer {
	var out []*trading.Offer
	for o := range v.best().all() {
		out = append(out, o)
	}
	return out
}

package grm

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// all yields what the cursor's next returns, for a range loop.
func (c cursor) all() iter.Seq[*trading.Offer] {
	return func(yield func(*trading.Offer) bool) {
		for o := c.next(); o != nil && yield(o); o = c.next() {
		}
	}
}

// seededKeys draws n keys in ord order with few distinct values per component —
// heavy ties, so ord decides most positions — including both infinities and
// NaN, each pointing at its own offer.
func seededKeys(rng *sim.RNG, n int) []rankKey {
	k1s := []float64{0, 250, 500, math.Inf(1), math.Inf(-1), math.NaN()}
	k2s := []float64{0, 512, math.NaN()}
	keys := make([]rankKey, n)
	for i := range keys {
		keys[i] = rankKey{k1: k1s[rng.Intn(len(k1s))], k2: k2s[rng.Intn(len(k2s))], ord: i + 1, offer: new(trading.Offer), met: 1}
	}
	return keys
}

// stableReference is the order the ranking replaced: a stable sort by
// descending (k1, k2) of the keys in ord order.
func stableReference(inOrd []rankKey) []*trading.Offer {
	sorted := slices.Clone(inOrd)
	sort.SliceStable(sorted, func(i, j int) bool {
		if c := cmp.Compare(sorted[j].k1, sorted[i].k1); c != 0 {
			return c < 0
		}
		return cmp.Compare(sorted[j].k2, sorted[i].k2) < 0
	})
	out := make([]*trading.Offer, len(sorted))
	for i, k := range sorted {
		out[i] = k.offer
	}
	return out
}

// pull returns the first n candidates of v, breaking off there as a reserve
// loop does.
func pull(v view, n int) []*trading.Offer {
	var out []*trading.Offer
	for o := range v.best().all() {
		if len(out) == n {
			break
		}
		out = append(out, o)
	}
	return out
}

// TestRankingInterleavings is the ranking's property: however the keys were
// collected, and however "the next best" and "all of them" interleave, the
// candidates come out in the stable order of the ord-ordered input.
func TestRankingInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 17, 400} {
			rng := sim.NewRNG(seed)
			inOrd := seededKeys(rng, n)
			want := stableReference(inOrd)
			collected := func() view { // a fresh visit, in some other order
				keys := slices.Clone(inOrd)
				rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				return wholeView(keys)
			}
			step := max(1, n/20)
			// Pull the first p one at a time, then drain: every split point.
			for p := 0; p <= n; p += step {
				v := collected()
				if got := pull(v, p); !slices.Equal(got, want[:p]) {
					t.Fatalf("seed %d, n=%d: the first %d are not the stable sort's", seed, n, p)
				}
				for range 2 { // settling is idempotent
					v.r.settle()
					if got := slices.Collect(v.best().all()); !slices.Equal(got, want) {
						t.Fatalf("seed %d, n=%d: drained after %d pulls, the order is not the stable sort's", seed, n, p)
					}
				}
			}
			// Hits of one batch: each walks from the best again, some further than
			// any before, and what is pulled last is everything, by pops alone.
			v := collected()
			for _, stop := range []int{n / 3, n / 7, n / 2, n / 2, n} {
				if got := pull(v, stop); !slices.Equal(got, want[:stop]) {
					t.Fatalf("seed %d, n=%d: a hit pulling %d saw another order than the stable sort's", seed, n, stop)
				}
			}
		}
	}
}

// sliceWindowFilter is the windowFilter the lazy one replaced, kept as the
// differential reference: it walks the ordered slice twice and copies the
// candidates that fit.
func sliceWindowFilter(g *GRM, ordered []*trading.Offer, spec protocol.ApplicationSpec) (kept []*trading.Offer, rejected int) {
	runtime := estimatedRuntime(spec)
	if !g.windowAware || len(ordered) == 0 || runtime <= 0 {
		return ordered, 0
	}
	deadline := float64(g.clock.Now().Add(runtime).Unix())
	for _, o := range ordered {
		if offerFitsWindow(o, deadline) {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 || len(kept) == len(ordered) {
		return ordered, 0
	}
	return kept, len(ordered) - len(kept)
}

// TestWindowFilterMatchesSliceFilter pins the window filter's three outcomes —
// some candidates violate, none does, all do — and its WindowRejected
// accounting against the slice implementation, on an unsettled ranking, a
// partly settled one and a settled one. Each case runs on a ranking of the
// view's members alone, and again on a view of a shared heap whose
// non-members all violate their windows and some of whose members belong to
// the other view too: where only non-members violate (zero-violations), where
// every member does (all-violate), the view must see its members and nothing
// else.
func TestWindowFilterMatchesSliceFilter(t *testing.T) {
	clock := sim.NewVirtualClock()
	now := clock.Now()
	hour := protocol.ApplicationSpec{WorkPerTask: 3600 * 100, Alloc: resource.Vector{MIPS: 100}}
	short, long := float64(now.Add(10*time.Minute).Unix()), float64(now.Add(3*time.Hour).Unix())
	window := func(end, conf float64, dedicated bool) *trading.Offer {
		return &trading.Offer{Properties: constraint.Properties{
			PropWindowEnd:  constraint.Number(end),
			PropWindowConf: constraint.Number(conf),
			PropDedicated:  constraint.Bool(dedicated),
		}.Record()}
	}
	fits := []func() *trading.Offer{
		func() *trading.Offer { return window(long, 0.9, false) },
		func() *trading.Offer { return window(short, 0.9, true) },  // dedicated: always
		func() *trading.Offer { return window(short, 0.2, false) }, // below the confidence floor
		func() *trading.Offer { return window(0, 0, false) },       // no forecast
	}
	violates := func() *trading.Offer { return window(short, 0.9, false) }

	for _, tc := range []struct {
		name         string
		aware        bool
		spec         protocol.ApplicationSpec
		fit, violate int
	}{
		{"partial", true, hour, 9, 14},
		{"one-violator", true, hour, 12, 1},
		{"zero-violations", true, hour, 10, 0},
		{"all-violate", true, hour, 0, 11},
		{"empty", true, hour, 0, 0},
		{"no-runtime", true, protocol.ApplicationSpec{}, 3, 3},
		{"window-blind", false, hour, 3, 3},
	} {
		for _, shared := range []bool{false, true} {
			name := tc.name
			if shared {
				name += "/shared"
			}
			t.Run(name, func(t *testing.T) {
				rng := sim.NewRNG(int64(tc.fit*100 + tc.violate))
				members := tc.fit + tc.violate
				var keys []rankKey
				for i := 0; i < members; i++ {
					o := violates()
					if i < tc.fit {
						o = fits[i%len(fits)]()
					}
					keys = append(keys, rankKey{k1: float64(rng.Intn(3)), ord: i + 1, offer: o, met: 1})
					if shared && i%3 == 0 {
						keys[i].met |= 2
					}
				}
				if shared {
					for i := range 7 {
						keys = append(keys, rankKey{k1: float64(rng.Intn(3)), ord: members + i + 1, offer: violates(), met: 2})
					}
				}
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

				for _, settled := range []int{0, members / 3, members} {
					opts := []Option{}
					if tc.aware {
						opts = append(opts, WithWindowAware())
					}
					g := New("test", clock, orb.New(), opts...)
					v := view{r: newRanking(slices.Clone(keys)), bit: 1, n: members}
					pull(v, settled)
					got := slices.Collect(g.windowFilter(v, tc.spec).all())
					gotRejected := g.Stats().WindowRejected

					v.r.settle()
					want, wantRejected := sliceWindowFilter(g, slices.Collect(v.best().all()), tc.spec)
					if !slices.Equal(got, want) {
						t.Fatalf("%d settled: %d candidates, the slice filter keeps %d (or in another order)", settled, len(got), len(want))
					}
					if gotRejected != wantRejected {
						t.Fatalf("%d settled: WindowRejected = %d, the slice filter rejects %d", settled, gotRejected, wantRejected)
					}
					if tc.aware && tc.fit > 0 && tc.violate > 0 && tc.spec.WorkPerTask > 0 {
						if len(got) != tc.fit || gotRejected != tc.violate {
							t.Fatalf("kept %d, rejected %d; want %d, %d", len(got), gotRejected, tc.fit, tc.violate)
						}
					} else if len(got) != members || gotRejected != 0 {
						t.Fatalf("kept %d of %d, rejected %d; want every member kept and nothing counted", len(got), members, gotRejected)
					}
					g.Stop()
				}
			})
		}
	}
}

// TestRefusedPlacementSettlesOnlyWhatItTries pins where the attempt limit is
// tested: with every candidate refusing, a placement of one task negotiates
// with exactly maxAttempts of them and settles — pops off the ranking — exactly
// those, not one more it never tries; two tasks, gang or not, have twice the
// budget and, each refusal moving them to the next node, settle that many.
func TestRefusedPlacementSettlesOnlyWhatItTries(t *testing.T) {
	const limit, fleet = 3, 12
	o := orb.New()
	g := New("test", sim.NewVirtualClock(), o, WithMaxAttempts(limit))
	defer g.Stop()
	refusing := orb.NewAdapter()
	mux := orb.NewOpMux().Handle(protocol.OpReserve, func(string, *orb.Decoder) (*orb.Encoder, error) {
		e := &orb.Encoder{}
		protocol.ReserveReply{Reason: "full"}.Encode(e)
		return e, nil
	})
	if err := refusing.Register(protocol.LRMKey, mux); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleet; i++ {
		ep, err := o.BindLoopback("refuser-"+string(rune('a'+i)), refusing)
		if err != nil {
			t.Fatal(err)
		}
		free := resource.Vector{MIPS: float64(1000 + i), RAMMB: 1024}
		if _, err := g.handleUpdate(updateFrame(&protocol.NodeStatus{
			NodeID:    ep.Addr,
			LRMRef:    orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey},
			Capacity:  free,
			GridFree:  free,
			Timestamp: g.clock.Now(),
		})); err != nil {
			t.Fatal(err)
		}
	}
	spec := protocol.ApplicationSpec{NumTasks: 2, Alloc: resource.Vector{MIPS: 100, RAMMB: 64}}
	app := &appInfo{id: "app", spec: spec, constraint: buildConstraint(spec)}
	tasks := []*taskInfo{{id: "app/t0"}, {id: "app/t1"}}

	settled := func(mc *matchCtx) int {
		r := mc.entry(app.constraint).r
		if len(r.keys) != fleet {
			t.Fatalf("%d candidates, want the whole fleet of %d", len(r.keys), fleet)
		}
		return len(r.keys) - r.heap
	}
	rounds := 0
	for _, tc := range []struct {
		name  string
		tasks []*taskInfo
		gang  bool
	}{
		{"one task", tasks[:1], false},
		{"two tasks", tasks, false},
		{"a gang of two", tasks, true},
	} {
		mc := g.newMatchCtx()
		if placed := g.place(app, tc.tasks, mc, tc.gang, ""); placed != 0 {
			t.Fatalf("%s: %d placed although every LRM refuses", tc.name, placed)
		}
		st := g.Stats()
		want := limit * len(tc.tasks)
		if got, asked := settled(mc), st.NegotiationRounds-rounds; got != want || asked != want {
			t.Fatalf("%s: settled %d candidates in %d rounds, want %d and %d", tc.name, got, asked, want, want)
		}
		if st.Refusals != st.NegotiationRounds {
			t.Fatalf("%s: %d refusals in %d rounds", tc.name, st.Refusals, st.NegotiationRounds)
		}
		rounds = st.NegotiationRounds
	}
}

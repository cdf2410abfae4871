package grm

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

func offer(nodeID string, mipsFree, ramFree, idleSec float64, dedicated, busy bool) trading.Offer {
	return trading.Offer{
		Ref: orb.ObjectRef{
			Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: nodeID},
			Key:      "lrm",
		},
		Properties: constraint.Properties{
			PropNode:          constraint.String(nodeID),
			PropMIPSFree:      constraint.Number(mipsFree),
			PropRAMFree:       constraint.Number(ramFree),
			PropPredictedIdle: constraint.Number(idleSec),
			PropDedicated:     constraint.Bool(dedicated),
			PropOwnerBusy:     constraint.Bool(busy),
		}.Record(),
	}
}

func order(p Policy, offers []trading.Offer) []string {
	out := p.Order(offers, sim.NewRNG(1))
	ids := make([]string, len(out))
	for i, o := range out {
		id, _ := o.Properties.Get(PropNode).AsString()
		ids[i] = id
	}
	return ids
}

func TestBestFitOrdersByFreeCPUThenRAM(t *testing.T) {
	offers := []trading.Offer{
		offer("a", 100, 900, 0, false, false),
		offer("b", 500, 100, 0, false, false),
		offer("c", 500, 800, 0, false, false),
	}
	got := order(BestFit{}, offers)
	want := []string{"c", "b", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestUsageAwareOrdering(t *testing.T) {
	offers := []trading.Offer{
		offer("busy-big", 5000, 900, 7200, false, true),   // owner busy: idle forced to 0
		offer("idle-short", 300, 100, 1800, false, false), // 30 min predicted
		offer("idle-long", 200, 100, 14400, false, false), // 4 h predicted
		offer("dedicated", 100, 100, 0, true, false),      // counts as a week
	}
	got := order(UsageAware{}, offers)
	want := []string{"dedicated", "idle-long", "idle-short", "busy-big"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRandomUsesRNGDeterministically(t *testing.T) {
	var offers []trading.Offer
	for i := 0; i < 10; i++ {
		offers = append(offers, offer(fmt.Sprintf("n%d", i), float64(i), 0, 0, false, false))
	}
	a := Random{}.Order(offers, sim.NewRNG(42))
	b := Random{}.Order(offers, sim.NewRNG(42))
	for i := range a {
		ai, _ := a[i].Properties.Get(PropNode).AsString()
		bi, _ := b[i].Properties.Get(PropNode).AsString()
		if ai != bi {
			t.Fatal("same seed produced different orders")
		}
	}
	c := Random{}.Order(offers, sim.NewRNG(43))
	same := true
	for i := range a {
		ai, _ := a[i].Properties.Get(PropNode).AsString()
		ci, _ := c[i].Properties.Get(PropNode).AsString()
		if ai != ci {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical order (suspicious)")
	}
	// nil RNG keeps the input order.
	d := Random{}.Order(offers, nil)
	for i := range offers {
		di, _ := d[i].Properties.Get(PropNode).AsString()
		oi, _ := offers[i].Properties.Get(PropNode).AsString()
		if di != oi {
			t.Fatal("nil RNG shuffled")
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	offers := []trading.Offer{
		offer("a", 1, 1, 0, false, false),
		offer("b", 1, 1, 0, false, false),
		offer("c", 1, 1, 0, false, false),
	}
	rr := &RoundRobin{}
	first := order(rr, offers)
	second := order(rr, offers)
	third := order(rr, offers)
	fourth := order(rr, offers)
	if first[0] != "a" || second[0] != "b" || third[0] != "c" || fourth[0] != "a" {
		t.Fatalf("rotation heads = %s %s %s %s", first[0], second[0], third[0], fourth[0])
	}
	if rr.Order(nil, nil) != nil {
		t.Fatal("empty input should return nil/empty")
	}
}

func TestPolicyNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{BestFit{}, UsageAware{}, Random{}, &RoundRobin{}} {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
		if names[p.Name()] {
			t.Fatalf("duplicate policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestOrderDoesNotMutateInput(t *testing.T) {
	offers := []trading.Offer{
		offer("z", 1, 1, 0, false, false),
		offer("a", 9, 9, 0, false, false),
	}
	_ = BestFit{}.Order(offers, nil)
	id0, _ := offers[0].Properties.Get(PropNode).AsString()
	if id0 != "z" {
		t.Fatal("Order mutated the caller's slice")
	}
}

func TestBuildConstraint(t *testing.T) {
	spec := protocolSpecForConstraintTest()
	expr := buildConstraint(spec)
	compiled, err := constraint.Compile(expr)
	if err != nil {
		t.Fatalf("generated constraint does not compile: %v\n%s", err, expr)
	}
	// A node that satisfies everything.
	good := constraint.Properties{
		PropMIPSFree:  constraint.Number(600),
		PropRAMFree:   constraint.Number(128),
		PropMIPSTotal: constraint.Number(1000),
		"ram_total":   constraint.Number(2048),
		PropOS:        constraint.String("linux"),
		PropArch:      constraint.String("amd64"),
		PropOwnerBusy: constraint.Bool(false),
	}
	ok, err := compiled.Eval(good)
	if err != nil || !ok {
		t.Fatalf("good node rejected: %v %v", ok, err)
	}
	// Wrong OS.
	bad := constraint.Properties{}
	for k, v := range good {
		bad[k] = v
	}
	bad[PropOS] = constraint.String("windows")
	if ok, _ := compiled.Eval(bad); ok {
		t.Fatal("wrong-OS node accepted")
	}
	// Busy owner excluded by the user constraint.
	busy := constraint.Properties{}
	for k, v := range good {
		busy[k] = v
	}
	busy[PropOwnerBusy] = constraint.Bool(true)
	if ok, _ := compiled.Eval(busy); ok {
		t.Fatal("busy node accepted despite user constraint")
	}
}

func protocolSpecForConstraintTest() protocol.ApplicationSpec {
	p := resource.Platform{Arch: "amd64", OS: "linux"}
	return protocol.ApplicationSpec{
		Name:        "x",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 1,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
		Requirements: resource.Requirements{
			Platform: &p,
			Min:      resource.Vector{MIPS: 500, RAMMB: 16},
		},
		Constraint: "not owner_busy",
	}
}

// referenceOrder is the stable sort the keyed order replaced, kept as the
// differential reference: each policy's original sort.SliceStable comparator,
// reading the properties afresh on every comparison.
func referenceOrder(p Policy, offers []trading.Offer) []trading.Offer {
	num := func(o trading.Offer, key string) float64 {
		n, _ := o.Properties.Get(key).AsNumber()
		return n
	}
	truth := func(o trading.Offer, key string) bool {
		b, _ := o.Properties.Get(key).AsBool()
		return b
	}
	out := append([]trading.Offer(nil), offers...)
	switch p.(type) {
	case BestFit:
		sort.SliceStable(out, func(i, j int) bool {
			fi, fj := num(out[i], PropMIPSFree), num(out[j], PropMIPSFree)
			if fi != fj {
				return fi > fj
			}
			return num(out[i], PropRAMFree) > num(out[j], PropRAMFree)
		})
	case UsageAware:
		score := func(o trading.Offer) float64 {
			idle := num(o, PropPredictedIdle)
			if truth(o, PropDedicated) {
				idle = 7 * 24 * 3600
			}
			if truth(o, PropOwnerBusy) {
				idle = 0
			}
			return idle
		}
		sort.SliceStable(out, func(i, j int) bool {
			si, sj := score(out[i]), score(out[j])
			if si != sj {
				return si > sj
			}
			return num(out[i], PropMIPSFree) > num(out[j], PropMIPSFree)
		})
	default:
		panic("no reference for " + p.Name())
	}
	return out
}

// randomOffers draws n offers with few distinct values per property (heavy
// ties, so the index tie-break decides most positions), properties missing
// or of the wrong kind, and the dedicated / owner-busy overrides. Node IDs
// are the input positions, and each offer has an exporter of its own, so a
// trader holds them all.
func randomOffers(rng *sim.RNG, n int) []trading.Offer {
	offers := make([]trading.Offer, n)
	for i := range offers {
		props := constraint.Properties{PropNode: constraint.String(fmt.Sprintf("n%d", i))}
		set := func(key string, v constraint.Value) {
			switch rng.Intn(10) {
			case 0: // missing
			case 1:
				props[key] = constraint.String("not a " + key)
			default:
				props[key] = v
			}
		}
		set(PropMIPSFree, constraint.Number(float64(rng.Intn(4)*250)))
		set(PropRAMFree, constraint.Number(float64(rng.Intn(3)*512)))
		set(PropPredictedIdle, constraint.Number(float64(rng.Intn(4)*1800)))
		set(PropDedicated, constraint.Bool(rng.Intn(8) == 0))
		set(PropOwnerBusy, constraint.Bool(rng.Intn(5) == 0))
		offers[i] = trading.Offer{
			Ref:        orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprint(i)}, Key: "lrm"},
			Properties: props.Record(),
		}
	}
	return offers
}

func nodeIDs(offers []trading.Offer) []string {
	ids := make([]string, len(offers))
	for i, o := range offers {
		ids[i], _ = o.Properties.Get(PropNode).AsString()
	}
	return ids
}

// matcherOrder exports offers to a fresh GRM's trader, in order, then
// re-exports them keyed in the order beats gives (nil: not at all) — a round of
// heartbeats, after which the trader's slots no longer lie in export order — and
// returns the node IDs in the order the matcher's candidates come out: every
// offer matches the empty constraint.
func matcherOrder(t *testing.T, p Policy, offers []trading.Offer, beats []int) []string {
	t.Helper()
	g := New("test", sim.NewVirtualClock(), orb.New(), WithPolicy(p))
	defer g.Stop()
	if _, err := g.Trader().ExportBatch(offers); err != nil {
		t.Fatal(err)
	}
	for _, i := range beats {
		if _, err := g.Trader().ExportKeyed(offers[i]); err != nil {
			t.Fatal(err)
		}
	}
	ranked, err := g.newMatchCtx().candidates(&appInfo{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for o := range ranked.best().all() {
		id, _ := o.Properties.Get(PropNode).AsString()
		ids = append(ids, id)
	}
	return ids
}

// TestKeyedOrderMatchesStableSort checks the ranking against the stable sort it
// replaced, through both entry points: the public Order on values, and the
// matcher's candidates, whose keys are collected slot by slot —
// not in the export order the stable sort's input had, least of all after a
// shuffled round of heartbeats has renumbered every offer where it lies.
func TestKeyedOrderMatchesStableSort(t *testing.T) {
	for _, p := range []Policy{BestFit{}, UsageAware{}} {
		for _, n := range []int{0, 1, 2, 3, 17, 3400} {
			for seed := int64(1); seed <= 5; seed++ {
				offers := randomOffers(sim.NewRNG(seed), n)
				want := nodeIDs(referenceOrder(p, offers))

				if got := nodeIDs(p.Order(offers, nil)); !slices.Equal(got, want) {
					t.Fatalf("%s, n=%d, seed %d: Order differs from the stable sort", p.Name(), n, seed)
				}
				if got := matcherOrder(t, p, offers, nil); !slices.Equal(got, want) {
					t.Fatalf("%s, n=%d, seed %d: the matcher's candidates differ from the stable sort", p.Name(), n, seed)
				}
				beats := sim.NewRNG(seed).Perm(n)
				reexported := make([]trading.Offer, n)
				for i, b := range beats {
					reexported[i] = offers[b]
				}
				if got, want := matcherOrder(t, p, offers, beats), nodeIDs(referenceOrder(p, reexported)); !slices.Equal(got, want) {
					t.Fatalf("%s, n=%d, seed %d: after a round of heartbeats the matcher's candidates differ from the stable sort of the new export order", p.Name(), n, seed)
				}
			}
		}
	}
}

// TestKeyedOrderIsTotalWithNaN pins where a NaN key sorts — after every
// number, tied with other NaNs, input order within the tie — and that the
// result does not depend on where the NaNs start out, which is what a
// comparator that is not a total order gets wrong.
func TestKeyedOrderIsTotalWithNaN(t *testing.T) {
	nan := math.NaN()
	offers := []trading.Offer{
		offer("nan-a", nan, 1, 0, false, false),
		offer("low", 100, 1, 0, false, false),
		offer("nan-b", nan, 9, 0, false, false),
		offer("high", 900, 1, 0, false, false),
		offer("inf", math.Inf(1), 1, 0, false, false),
		offer("tie-nan-ram", 500, nan, 0, false, false),
		offer("tie-ram", 500, 64, 0, false, false),
		offer("neg-inf", math.Inf(-1), 1, 0, false, false),
	}
	want := []string{"inf", "high", "tie-ram", "tie-nan-ram", "low", "neg-inf", "nan-b", "nan-a"}
	if got := order(BestFit{}, offers); !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	rng := sim.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })
		got := order(BestFit{}, offers)
		// The two all-NaN-k1 offers differ in k2, so no pair ties completely
		// and the order is the same whatever the input permutation.
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: order = %v, want %v", trial, got, want)
		}
	}
}

// TestStatefulPolicyGetsValueCopies checks the other half of the candidate
// path: a policy without a key is handed copies, so whatever it does to them
// never reaches the trader's offers, and is invoked once per query.
func TestStatefulPolicyGetsValueCopies(t *testing.T) {
	p := &scribblingPolicy{}
	g := New("test", sim.NewVirtualClock(), orb.New(), WithPolicy(p))
	defer g.Stop()
	// Forty nodes, registered in order and then heartbeating in another: the
	// last to report, n0, is the last in export order wherever its slot is.
	const nodes = 40
	for _, i := range append(sim.NewRNG(1).Perm(nodes), sim.NewRNG(2).Perm(nodes)...) {
		if _, err := g.Trader().ExportKeyed(offer(fmt.Sprintf("n%d", i), 1000, 1024, 0, false, false)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Trader().ExportKeyed(offer("n0", 1000, 1024, 0, false, false)); err != nil {
		t.Fatal(err)
	}
	spec := protocolSpecForConstraintTest()
	spec.Requirements, spec.Constraint = resource.Requirements{}, ""
	app := &appInfo{spec: spec, constraint: buildConstraint(spec)}
	mc := g.newMatchCtx()
	for query := 1; query <= 2; query++ {
		got, err := mc.candidates(app)
		if err != nil || got.n != nodes {
			t.Fatalf("candidates = %+v, %v", got, err)
		}
		if id, _ := pull(got, 1)[0].Properties.Get(PropNode).AsString(); id != "n0" {
			t.Fatalf("first candidate = %s, want n0 (the policy reverses export order)", id)
		}
		if p.calls != query {
			t.Fatalf("policy invoked %d times after %d queries", p.calls, query)
		}
	}
	if mc.hits != 1 || mc.misses != 1 {
		t.Fatalf("hits, misses = %d, %d: the second query should be served from the first's matches", mc.hits, mc.misses)
	}
	for _, o := range g.Trader().All("") {
		if o.Ref.Key != "lrm" {
			t.Fatalf("the policy's write reached the trader's offer: ref %v", o.Ref)
		}
	}
}

// scribblingPolicy reverses its input in place and overwrites a field of
// every offer: legal for a policy that owns what it is given.
type scribblingPolicy struct{ calls int }

func (*scribblingPolicy) Name() string { return "scribbling" }

func (p *scribblingPolicy) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	p.calls++
	slices.Reverse(offers)
	for i := range offers {
		offers[i].Ref.Key = "scribbled"
	}
	return offers
}

// TestOrderKeyedAllocations measures what the //lint:hotpath budgets of the
// ranking count statically: building one allocates its header and nothing per
// candidate, and settling — one candidate or all of them — allocates nothing.
// A warm snapshot miss, and a warm admission batch of 64 applications over 16
// constraints, allocate the same few small objects however many offers they
// match: their keys are ranked in the GRM's scratch, which each closed context
// hands to the next.
func TestOrderKeyedAllocations(t *testing.T) {
	const matches = 3400
	g := New("test", sim.NewVirtualClock(), orb.New())
	defer g.Stop()
	if _, err := g.Trader().ExportBatch(randomOffers(sim.NewRNG(1), matches)); err != nil {
		t.Fatal(err)
	}
	fill := func(mc *matchCtx) view {
		ent, err := mc.lookup("")
		if err != nil || ent.n != matches {
			t.Fatalf("fill = %+v, %v", ent, err)
		}
		return ent.view
	}
	keys := fill(g.newMatchCtx()).r.keys
	if got := testing.AllocsPerRun(10, func() { newRanking(keys) }); got != 1 {
		t.Errorf("newRanking allocates %v times, want 1", got)
	}
	r := fill(g.newMatchCtx()).r
	if got := testing.AllocsPerRun(1000, r.pop); got != 0 {
		t.Errorf("pop allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(1, r.settle); got != 0 {
		t.Errorf("settle allocates %v times, want 0", got)
	}

	miss := func() {
		mc := g.newMatchCtx()
		pullCandidates(t, mc, &appInfo{})
		mc.close()
	}
	// The ranking: the entry and the keys live in the GRM's scratch, and the
	// context and the cursor on the stack.
	if got := testing.AllocsPerRun(10, miss); got > 1 {
		t.Errorf("a warm snapshot miss allocates %v times, want at most 1", got)
	}
	if got := bytesPerRun(10, miss); got > 64 {
		t.Errorf("a warm snapshot miss allocates %d B, want at most 64: nothing may grow with its %d matches", got, matches)
	}

	fleet := New("fleet", sim.NewVirtualClock(), orb.New())
	defer fleet.Stop()
	missFleet(t, fleet, 10000)
	deck := missApps()
	var apps []*appInfo
	for range 4 {
		apps = append(apps, deck[:]...)
	}
	batch := func() {
		mc := fleet.newMatchCtx()
		mc.prefill(apps)
		for _, app := range apps {
			pullCandidates(t, mc, app)
		}
		mc.close()
	}
	// The one ranking of the batch's 16 constraints; their entries live in
	// the scratch too, and the constraint list on the stack.
	if got := testing.AllocsPerRun(10, batch); got > 1 {
		t.Errorf("a warm batch allocates %v times, want at most 1", got)
	}
	if got := bytesPerRun(10, batch); got > 64 {
		t.Errorf("a warm batch allocates %d B, want at most 64: nothing may grow with its ~9 500 matching offers", got)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the heap f allocates per call,
// averaged over runs after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

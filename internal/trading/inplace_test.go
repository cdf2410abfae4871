package trading

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"integrade/internal/orb"
)

// These tests cover the writes that do not rebuild the snapshot — a status
// update's slot store and a first export's append past the snapshot's end —
// the withdrawals that do, and readers racing both.

// modelTrader is the index as it behaved when every write rebuilt it: it holds
// at most one offer per ref, and what it holds is all the state there is.
type modelTrader struct {
	seq     int
	version uint64
	offers  []Offer
}

// write is the one mutation: the index loses the offers of the refs gone and
// adds name, and gains adds.
func (m *modelTrader) write(gone []orb.ObjectRef, adds ...Offer) {
	m.offers = append(slices.DeleteFunc(m.offers, func(o Offer) bool {
		return slices.Contains(gone, o.Ref) || slices.ContainsFunc(adds, func(a Offer) bool { return a.Ref == o.Ref })
	}), adds...)
}

func (m *modelTrader) number(o Offer) Offer {
	m.seq++
	o.seq = m.seq
	return o
}

// holds reports whether ref has an offer.
func (m *modelTrader) holds(ref orb.ObjectRef) bool {
	return slices.ContainsFunc(m.offers, func(o Offer) bool { return o.Ref == ref })
}

// exportKeyed replaces the ref's offer, if it has one, and returns the new
// offer's seq.
func (m *modelTrader) exportKeyed(o Offer) int {
	o = m.number(o)
	m.write(nil, o)
	m.version++
	return o.seq
}

// exportBatch is exportKeyed of each offer in turn, in one version step.
func (m *modelTrader) exportBatch(offers []Offer) {
	for _, o := range offers {
		m.write(nil, m.number(o))
	}
	m.version++
}

// withdraw removes the offers of refs, in one version step, and reports
// whether any of them had one.
func (m *modelTrader) withdraw(refs ...orb.ObjectRef) bool {
	if !slices.ContainsFunc(refs, m.holds) {
		return false
	}
	m.write(refs)
	m.version++
	return true
}

func (m *modelTrader) all() []Offer {
	live := slices.Clone(m.offers)
	slices.SortFunc(live, func(a, b Offer) int { return a.seq - b.seq })
	return live
}

// TestCompactionTimingMatchesModel pins that an offer leaves the index at the
// write that removes it, and only then: over a seeded deck of every write, the
// service agrees with the rebuild-on-every-write model after every step on
// what the index holds and on Count, All and Version. The deck writes through
// places too: a place is live until the model drops its ref's offer, and a
// write through a dead one changes nothing. It withdraws one place at a time
// and several in one call — live, dead, zero and repeated places mixed — which
// is one version step, or none when no place was live. It also first-exports
// refs while the slot array has room, which must append over the same array.
func TestCompactionTimingMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, m := NewService(nil), &modelTrader{}
		rng := rand.New(rand.NewSource(seed))
		offer := func() Offer { return nodeOffer(rng.Intn(150), float64(rng.Intn(2000)), 512) }
		places := map[orb.ObjectRef]Place{} // the latest place of each ref, while live
		var dead []Place
		roomy, many := 0, 0 // first exports into a slot array with room; withdrawals of several live places
		for step := 0; step < 1200; step++ {
			switch op := rng.Intn(11); op {
			case 0, 1, 2:
				o := offer()
				p, err := s.ExportKeyed(o)
				if want := m.exportKeyed(o); err != nil || p.e.st.seq != want {
					t.Fatalf("seed %d step %d: ExportKeyed = %v, %v; model seq %d", seed, step, p, err, want)
				}
				places[o.Ref] = p
			case 3, 4:
				o := offer()
				if p, live := places[o.Ref]; !live {
					if len(dead) > 0 && upsertOffer(s, dead[rng.Intn(len(dead))], o) {
						t.Fatalf("seed %d step %d: an upsert through a dead place was stored", seed, step)
					}
				} else if !upsertOffer(s, p, o) || p.e.st.seq != m.exportKeyed(o) {
					t.Fatalf("seed %d step %d: an upsert through a live place was dropped or misnumbered", seed, step)
				}
			case 5, 6:
				batch := make([]Offer, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = offer()
				}
				if _, err := s.ExportBatch(batch); err != nil {
					t.Fatal(err)
				}
				m.exportBatch(batch)
			case 7, 8:
				ref := nodeRef(rng.Intn(150))
				got := false
				if p, live := places[ref]; live && op == 7 {
					got = s.Withdraw(p)
				} else {
					got = withdrawRef(s, ref)
				}
				if want := m.withdraw(ref); got != want {
					t.Fatalf("seed %d step %d: withdrawing %v = %v, model %v", seed, step, ref, got, want)
				}
			case 9:
				var ps []Place
				var refs []orb.ObjectRef
				for range 1 + rng.Intn(5) {
					ref := nodeRef(rng.Intn(150))
					p, live := places[ref]
					switch {
					case !live && len(dead) > 0:
						p = dead[rng.Intn(len(dead))]
					case live:
						refs = append(refs, ref)
					}
					ps = append(ps, p) // a repeat of a ref repeats its place
				}
				if len(refs) > 1 {
					many++
				}
				before := s.snap.Load()
				if got, want := s.Withdraw(ps...), m.withdraw(refs...); got != want || got == (s.snap.Load() == before) {
					t.Fatalf("seed %d step %d: withdrawing %d places, %d live, = %v, model %v; rebuilt %v",
						seed, step, len(ps), len(refs), got, want, s.snap.Load() != before)
				}
			case 10:
				n, ok := roomyNode(s, m, rng.Perm(150))
				if !ok {
					break
				}
				before := s.snap.Load()
				o := offer()
				o.Ref = nodeRef(n)
				p, err := s.ExportKeyed(o)
				if want := m.exportKeyed(o); err != nil || p.e.st.seq != want {
					t.Fatalf("seed %d step %d: ExportKeyed = %v, %v; model seq %d", seed, step, p, err, want)
				}
				places[o.Ref] = p
				after := s.snap.Load()
				appended := &after.slots[:1][0] == &before.slots[:1][0] && len(after.slots) == len(before.slots)+1
				if !appended || p.e.slot != len(after.slots)-1 {
					t.Fatalf("seed %d step %d: a first export into a slot array with room appended %v, at slot %d of %d",
						seed, step, appended, p.e.slot, len(after.slots))
				}
				roomy++
			}
			for ref, p := range places {
				if !m.holds(ref) {
					dead = append(dead, p)
					delete(places, ref)
				}
			}

			got := slotOffers(s)
			if len(got) != len(m.offers) {
				t.Fatalf("seed %d step %d: the index holds %d offers, model %d", seed, step, len(got), len(m.offers))
			}
			held := map[int]Offer{}
			for _, o := range m.offers {
				held[o.seq] = o
			}
			for _, st := range got {
				if want, ok := held[st.seq]; !ok || st.Ref != want.Ref {
					t.Fatalf("seed %d step %d: the index holds seq %d (%v), model %v: %+v", seed, step, st.seq, st.Ref, ok, want)
				}
			}
			all, want := s.All(""), m.all()
			if len(all) != len(want) || s.Count() != len(want) {
				t.Fatalf("seed %d step %d: All = %d offers, Count = %d, model %d", seed, step, len(all), s.Count(), len(want))
			}
			for i := range all {
				if all[i].seq != want[i].seq {
					t.Fatalf("seed %d step %d: All[%d] = seq %d, model %d", seed, step, i, all[i].seq, want[i].seq)
				}
			}
			if s.Version() != m.version {
				t.Fatalf("seed %d step %d: Version = %d, model %d", seed, step, s.Version(), m.version)
			}
		}
		assertIndexConsistent(t, s)
		if m.seq < 800 || len(m.offers) == 0 || len(dead) == 0 || roomy == 0 || many == 0 {
			t.Fatalf("seed %d: the deck numbered %d offers, left %d live, killed %d places, first-exported %d into a slot array with room and withdrew several live places at once %d times: it does not exercise the index",
				seed, m.seq, len(m.offers), len(dead), roomy, many)
		}
	}
}

// roomyNode returns the first of nodes whose ref the model holds no offer for,
// while the slot array has room past the snapshot's end; false when there is
// no room or no such node.
func roomyNode(s *Service, m *modelTrader, nodes []int) (int, bool) {
	if slots := s.snap.Load().slots; len(slots) == cap(slots) {
		return 0, false
	}
	for _, n := range nodes {
		if !m.holds(nodeRef(n)) {
			return n, true
		}
	}
	return 0, false
}

// heartbeatFleet registers n nodes.
func heartbeatFleet(t testing.TB, s *Service, n int) {
	t.Helper()
	batch := make([]Offer, n)
	for i := range batch {
		batch[i] = nodeOffer(i, float64(i%2000), 512)
	}
	if _, err := s.ExportBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedUpsertInPlace: a heartbeat — an upsert through a ref's place, or
// ExportKeyed of a ref that holds an offer — stores into the ref's slot and
// leaves the snapshot where it was, at a cost that does not depend on how
// many offers the index holds; a write that changes what the index holds
// still publishes a fresh snapshot.
func TestKeyedUpsertInPlace(t *testing.T) {
	s := NewService(nil)
	heartbeatFleet(t, s, 10000)
	var place Place
	// beat upserts node 7 through its place, or by reference when it has none.
	beat := func() (seq int, inPlace bool) {
		t.Helper()
		before, v := s.snap.Load(), s.Version()
		o := nodeOffer(7, 1234, 512)
		var err error
		if !upsertOffer(s, place, o) {
			place, err = s.ExportKeyed(o)
		}
		if err != nil || s.Version() != v+1 {
			t.Fatalf("upsert: %v; version %d -> %d", err, v, s.Version())
		}
		return place.e.st.seq, s.snap.Load() == before
	}

	first, _ := s.Select(Query{Constraint: "mips == 1234"})
	for _, how := range []string{"by reference", "through the place"} {
		seq, inPlace := beat()
		if !inPlace {
			t.Fatalf("a heartbeat %s rebuilt the snapshot", how)
		}
		got, err := s.Select(Query{Constraint: "mips == 1234"})
		if err != nil || len(got) != len(first)+1 || got[len(got)-1].Seq() != seq || s.Count() != 10000 {
			t.Fatalf("after the heartbeat %s %d offers have its mips (was %d), %v; Count = %d", how, len(got), len(first), err, s.Count())
		}
		if e := s.byRef[nodeRef(7)]; e != place.e || e.st.seq != seq {
			t.Fatalf("after the heartbeat %s the ref's entry is not its place's, or holds another offer than seq %d", how, seq)
		}
	}
	assertIndexConsistent(t, s)

	const few = 128
	small := NewService(nil)
	heartbeatFleet(t, small, few)
	o := nodeOffer(7, 1, 1)
	schema, values := recordParts(o.Properties)
	perBeat := func(s *Service) (byRef, byPlace float64) {
		p, _ := s.ExportKeyed(o)
		return testing.AllocsPerRun(200, func() { _, _ = s.ExportKeyed(o) }),
			testing.AllocsPerRun(200, func() { s.Upsert(p, schema, values) })
	}
	bigRef, bigPlace := perBeat(s)
	if oneRef, onePlace := perBeat(small); bigRef != oneRef || bigPlace != onePlace || bigRef > 1 || bigPlace > 1 {
		t.Fatalf("a heartbeat allocates %v (by ref) and %v (through its place) times among 10^4 offers, %v and %v among %d: it must not depend on the fleet",
			bigRef, bigPlace, oneRef, onePlace, few)
	}

	if _, err := s.ExportBatch([]Offer{nodeOffer(7, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, inPlace := beat(); !inPlace || s.byRef[nodeRef(7)] != place.e {
		t.Fatal("a batch's upsert of the ref killed its place, or the next heartbeat rebuilt")
	}
	s.Withdraw(place)
	if _, inPlace := beat(); inPlace {
		t.Fatal("a ref's first offer has no slot to be stored into")
	}
	assertIndexConsistent(t, s)
}

// TestWithdrawManyIsOneWrite: withdrawing k places in one call is one
// rebuild and one version step, however many of them there are, and leaves
// every one of them dead; places that are dead, zero or repeated add nothing,
// and a call whose places are all of that kind changes nothing.
func TestWithdrawManyIsOneWrite(t *testing.T) {
	const nodes, k = 100, 10
	s := NewService(nil)
	places := make([]Place, nodes)
	for i := range places {
		p, err := s.ExportKeyed(nodeOffer(i, float64(i), 512))
		if err != nil {
			t.Fatal(err)
		}
		places[i] = p
	}
	if !s.Withdraw(places[nodes-1]) {
		t.Fatal("withdrawing a live place removed nothing")
	}
	before, v := s.snap.Load(), s.Version()
	ps := append(slices.Clone(places[:k]), places[0], places[nodes-1], Place{})
	if !s.Withdraw(ps...) || s.Version() != v+1 || s.snap.Load() == before {
		t.Fatalf("withdrawing %d live places in one call: version %d -> %d, rebuilt %v; want one step and one rebuild",
			k, v, s.Version(), s.snap.Load() != before)
	}
	if got := s.Count(); got != nodes-1-k {
		t.Fatalf("Count = %d after withdrawing %d of %d, want %d", got, k, nodes-1, nodes-1-k)
	}
	for i, p := range places[:k] {
		if upsertOffer(s, p, nodeOffer(i, 1, 1)) {
			t.Fatalf("the place of node %d stayed live after its withdrawal", i)
		}
	}
	v, before = s.Version(), s.snap.Load()
	if s.Withdraw(ps...) || s.Withdraw() || s.Version() != v || s.snap.Load() != before {
		t.Fatal("withdrawing only dead and zero places changed the index")
	}
	assertIndexConsistent(t, s)
}

// TestVisitRacesInPlaceUpserts: readers walk the index while writers heartbeat
// every ref of a fleet, round after round — by reference first, through its
// place after that — so nearly every write is a slot store; every third round
// a few refs beside the fleet are withdrawn in one call, which rebuilds the
// snapshot, and exported again, which appends past its end. Each visit must
// see each fleet ref exactly once (its old offer or its new one) when
// everything matches, every ref at most once, and nothing that fails the
// constraint it was yielded for; a set visit (VisitMatchSet) must set the
// bits of exactly the constraints the offer it yields meets. Under -race a
// torn or unsynchronised publish is a report too.
func TestVisitRacesInPlaceUpserts(t *testing.T) {
	var round atomic.Int64
	const refs, extra = 300, 5
	s := NewService(nil)
	heartbeatFleet(t, s, refs)
	fleet := make([]orb.ObjectRef, refs)
	for n := range fleet {
		fleet[n] = nodeRef(n)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	places := make([]Place, refs) // writer w owns the refs 3i+w
	var extras []Place            // the places of the refs beside the fleet
	var byRef atomic.Int64
	beatAll := func() {
		var writers sync.WaitGroup
		for w := 0; w < 3; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(round.Load()*3 + int64(w)))
				for _, i := range rng.Perm(refs / 3) {
					n := 3*i + w
					o := nodeOffer(n, float64(rng.Intn(2000)), 512)
					if upsertOffer(s, places[n], o) {
						continue
					}
					p, err := s.ExportKeyed(o)
					if err != nil {
						t.Errorf("ExportKeyed: %v", err)
						return
					}
					places[n] = p
					byRef.Add(1)
				}
			}(w)
		}
		writers.Wait()
	}
	// The fourth reader visits a set: everything (""), two thresholds, one
	// constraint nothing meets and one that does not compile.
	set := []string{"", "mips >= 1000", "mips < 500", "mips >= 5000", "mips >="}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			cons, floor := "mips >= 0", 0.0
			switch r {
			case 1, 2:
				cons, floor = "mips >= 1000", 1000.0
			case 3:
				cons = fmt.Sprintf("the set %q", set)
			}
			seen := make(map[orb.ObjectRef]int, refs)
			for visit := 0; ; visit++ {
				select {
				case <-stop:
					if visit == 0 {
						t.Error("a reader never ran")
					}
					return
				default:
				}
				clear(seen)
				var err error
				if r < 3 {
					err = visitOne(s, cons, func(o *Offer) {
						if mips, _ := o.Properties.Get("mips").AsNumber(); mips < floor {
							t.Errorf("%q yielded seq %d with mips %v", cons, o.Seq(), mips)
						}
						seen[o.Ref]++
					})
				} else if bad := s.VisitMatchSet(set, func(o *Offer, met uint64) {
					mips, _ := o.Properties.Get("mips").AsNumber()
					want := uint64(1)
					if mips >= 1000 {
						want |= 1 << 1
					}
					if mips < 500 {
						want |= 1 << 2
					}
					if met != want {
						t.Errorf("set visit yielded seq %d with mips %v and bits %b, want %b", o.Seq(), mips, met, want)
					}
					seen[o.Ref]++
				}); bad != 1<<4 {
					err = fmt.Errorf("constraints %b do not compile, want %b", bad, 1<<4)
				}
				if err != nil {
					t.Errorf("%s: %v", cons, err)
					return
				}
				for ref, n := range seen {
					if n != 1 {
						t.Errorf("%q yielded %v %d times in one visit", cons, ref, n)
						return
					}
				}
				if floor == 0 && slices.ContainsFunc(fleet, func(ref orb.ObjectRef) bool { return seen[ref] != 1 }) {
					t.Errorf("a visit of everything missed a fleet ref: it saw %d refs, the fleet has %d", len(seen), refs)
					return
				}
			}
		}(r)
	}
	republished := 0
	for ; round.Load() < 40; round.Add(1) {
		before := s.snap.Load()
		if round.Load()%3 == 0 {
			s.Withdraw(extras...)
			extras = extras[:0]
			for n := refs; n < refs+extra; n++ {
				p, err := s.ExportKeyed(nodeOffer(n, float64(n), 512))
				if err != nil {
					t.Fatal(err)
				}
				extras = append(extras, p)
			}
		}
		beatAll()
		if s.snap.Load() != before {
			republished++
		}
	}
	close(stop)
	readers.Wait()
	if republished == 0 || republished > 20 {
		t.Errorf("a new snapshot was published in %d rounds of 40: the rounds are meant to be stores with a rebuild now and then", republished)
	}
	if got := s.Count(); got != refs+extra || byRef.Load() != refs {
		t.Fatalf("Count = %d, want %d: heartbeats lost or duplicated an offer; %d exports by reference, want one a fleet ref", got, refs+extra, byRef.Load())
	}
	assertIndexConsistent(t, s)
}

// TestVisitRacesAppends: writers register fresh refs, past several doublings
// of the slot array, so most first exports append past a snapshot's end and
// some rebuild a full array; every fourth export also withdraws one of the
// writer's earlier refs and exports it again, so appends interleave with
// rebuilds. Readers walk the index
// meanwhile with VisitMatchSet, over one constraint and over two, and Count.
// A visit must yield each ref at most once and only offers that were exported
// — each ref's mips is its own — and Count must never exceed the refs there
// are.
func TestVisitRacesAppends(t *testing.T) {
	const writers, perWriter = 4, 120
	var nodes [writers][]int // writer w's: every writers-th ref from w on
	for n := range writers * perWriter {
		nodes[n%writers] = append(nodes[n%writers], n)
	}
	mips := map[orb.ObjectRef]float64{}
	for _, ns := range nodes {
		for _, n := range ns {
			mips[nodeRef(n)] = float64(n)
		}
	}
	s := NewService(nil)
	stop := make(chan struct{})
	var readers, running sync.WaitGroup // the writers start once every reader runs
	for r := 0; r < 3; r++ {
		readers.Add(1)
		running.Add(1)
		go func(r int) {
			defer readers.Done()
			running.Done()
			seen := make(map[orb.ObjectRef]int, len(mips))
			check := func(o *Offer) {
				if got, _ := o.Properties.Get("mips").AsNumber(); got != mips[o.Ref] || o.Seq() <= 0 {
					t.Errorf("a visit yielded %v with mips %v and seq %d, which was never exported", o.Ref, got, o.Seq())
				}
				seen[o.Ref]++
			}
			for {
				clear(seen)
				switch r {
				case 0:
					if err := visitOne(s, "mips >= 0", check); err != nil {
						t.Error(err)
						return
					}
				case 1:
					s.VisitMatchSet([]string{"mips >= 0", "mips < 0"}, func(o *Offer, met uint64) {
						if met != 1 {
							t.Errorf("the set visit yielded %v with bits %b, want 1", o.Ref, met)
						}
						check(o)
					})
				default:
					if n := s.Count(); n > len(mips) {
						t.Errorf("Count = %d of %d refs", n, len(mips))
						return
					}
				}
				for ref, n := range seen {
					if n != 1 {
						t.Errorf("a visit yielded %v %d times", ref, n)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	running.Wait()
	var writersDone sync.WaitGroup
	for w := range nodes {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			export := func(n int) (Place, bool) {
				p, err := s.ExportKeyed(nodeOffer(n, float64(n), 512))
				if err != nil {
					t.Errorf("ExportKeyed: %v", err)
				}
				return p, err == nil
			}
			var places []Place // places[k] is nodes[w][k]'s
			for k, n := range nodes[w] {
				p, ok := export(n)
				if !ok {
					return
				}
				places = append(places, p)
				if k%4 == 3 {
					j := rng.Intn(len(places))
					if !s.Withdraw(places[j]) {
						t.Errorf("withdrawing %v through its live place removed nothing", nodeRef(nodes[w][j]))
						return
					}
					if places[j], ok = export(nodes[w][j]); !ok {
						return
					}
				}
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	readers.Wait()
	if got := s.Count(); got != len(mips) {
		t.Fatalf("Count = %d, want the %d refs exported", got, len(mips))
	}
	assertIndexConsistent(t, s)
}

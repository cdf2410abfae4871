package trading

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/orb"
)

// These tests cover the writes that do not rebuild the snapshot — a status
// update's slot store and a first export's append past the snapshot's end —
// the sweep bound that decides when a write (or a read) must look at expiries,
// and readers racing both.

// modelTrader is the index as it behaved when every write rebuilt it: each
// write drops everything that has expired, reads skip the expired and drop
// nothing, and the index holds at most one offer per ref. What it holds —
// expired but unswept offers included — is all the state there is.
type modelTrader struct {
	seq     int
	version uint64
	offers  []Offer
	// swept lists the refs whose offers writes dropped as expired, each at a
	// write that did not replace it: the ref's place is dead from then on,
	// even once a later write of the same step gives the ref an offer again.
	swept []orb.ObjectRef
}

// write is the one mutation: the index loses what has expired and the offers
// of the refs adds and gone name, and gains adds.
func (m *modelTrader) write(now time.Time, gone *orb.ObjectRef, adds ...Offer) {
	m.offers = append(slices.DeleteFunc(m.offers, func(o Offer) bool {
		added := slices.ContainsFunc(adds, func(a Offer) bool { return a.Ref == o.Ref })
		if o.expired(now) && !added {
			m.swept = append(m.swept, o.Ref)
		}
		return gone != nil && o.Ref == *gone || o.expired(now) || added
	}), adds...)
}

func (m *modelTrader) number(o Offer) Offer {
	m.seq++
	o.seq = m.seq
	return o
}

// holds reports whether ref has an offer, expired or not.
func (m *modelTrader) holds(ref orb.ObjectRef) bool {
	return slices.ContainsFunc(m.offers, func(o Offer) bool { return o.Ref == ref })
}

// exportKeyed replaces the ref's offer, if it has one, and returns the new
// offer's seq.
func (m *modelTrader) exportKeyed(o Offer, now time.Time) int {
	o = m.number(o)
	m.write(now, nil, o)
	m.version++
	return o.seq
}

// exportBatch is exportKeyed of each offer in turn, in one version step.
func (m *modelTrader) exportBatch(offers []Offer, now time.Time) {
	for _, o := range offers {
		m.write(now, nil, m.number(o))
	}
	m.version++
}

// withdraw removes the ref's offer and reports whether it had one.
func (m *modelTrader) withdraw(ref orb.ObjectRef, now time.Time) bool {
	if !m.holds(ref) {
		return false
	}
	m.write(now, &ref)
	m.version++
	return true
}

func (m *modelTrader) all(now time.Time) []Offer {
	var live []Offer
	for _, o := range m.offers {
		if !o.expired(now) {
			live = append(live, o)
		}
	}
	slices.SortFunc(live, func(a, b Offer) int { return a.seq - b.seq })
	return live
}

// TestCompactionTimingMatchesModel pins that the sweep bound changed nothing
// that can be observed: over a seeded deck of every write and of clock advances,
// with offers that never expire, expire soon and expire late, the service agrees
// with the rebuild-on-every-write model after every step on what the index
// holds — expired offers not yet compacted included, so an expired offer
// leaves the index at the same write — and on Count, All and Version. The deck
// writes through places too: a place is live until the model drops its ref's
// offer — withdraws it, or sweeps it as expired at a write that does not
// replace it — and a write through a dead one changes nothing. It also
// first-exports refs while the slot array has room: an offer that keeps the
// sweep bound must be appended over the same array, and one
// that lowers the bound, or arrives once the bound is due, must rebuild — the
// latter compacting, as the model does.
func TestCompactionTimingMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		now := time.Unix(1_700_000_000, 0)
		s, m := NewService(func() time.Time { return now }), &modelTrader{}
		rng := rand.New(rand.NewSource(seed))
		offer := func() Offer {
			o := nodeOffer(rng.Intn(150), float64(rng.Intn(2000)), 512)
			if ttl := []time.Duration{0, 5 * time.Second, time.Minute}[rng.Intn(3)]; ttl > 0 {
				o.Expires = now.Add(ttl)
			}
			return o
		}
		places := map[orb.ObjectRef]Place{} // the latest place of each ref, while live
		var dead []Place
		var roomy [3]int // first exports into a slot array with room that keep, lower and find due its bound
		for step := 0; step < 1200; step++ {
			switch op := rng.Intn(13); op {
			case 0, 1, 2:
				o := offer()
				p, err := s.ExportKeyed(o)
				if want := m.exportKeyed(o, now); err != nil || p.e.st.seq != want {
					t.Fatalf("seed %d step %d: ExportKeyed = %v, %v; model seq %d", seed, step, p, err, want)
				}
				places[o.Ref] = p
			case 3, 4:
				o := offer()
				if p, live := places[o.Ref]; !live {
					if len(dead) > 0 && upsertOffer(s, dead[rng.Intn(len(dead))], o) {
						t.Fatalf("seed %d step %d: an upsert through a dead place was stored", seed, step)
					}
				} else if !upsertOffer(s, p, o) || p.e.st.seq != m.exportKeyed(o, now) {
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
				m.exportBatch(batch, now)
			case 7, 8:
				ref := nodeRef(rng.Intn(150))
				got := false
				if p, live := places[ref]; live && op == 7 {
					got = s.Withdraw(p)
				} else {
					got = withdrawRef(s, ref)
				}
				if want := m.withdraw(ref, now); got != want {
					t.Fatalf("seed %d step %d: withdrawing %v = %v, model %v", seed, step, ref, got, want)
				}
			case 9:
				n, ok := roomyNode(s, m, rng.Perm(150))
				if !ok {
					break
				}
				before := s.snap.Load()
				o := offer()
				o.Expires = time.Time{} // never expires: keeps any bound
				kind := rng.Intn(3)
				switch {
				case due(before.sweepAt, now):
					kind = 2 // already due
				case kind == 0 && !before.sweepAt.IsZero() && rng.Intn(2) == 0:
					o.Expires = before.sweepAt.Add(time.Minute)
				case kind == 1 && before.sweepAt.IsZero():
					o.Expires = now.Add(5 * time.Second)
				case kind == 1:
					o.Expires = now.Add(before.sweepAt.Sub(now) / 2)
				case kind == 2 && before.sweepAt.IsZero():
					kind = 0 // a bound that is never due
				case kind == 2:
					now = before.sweepAt
					o.Expires = now.Add(time.Minute)
				}
				o.Ref = nodeRef(n)
				p, err := s.ExportKeyed(o)
				if want := m.exportKeyed(o, now); err != nil || p.e.st.seq != want {
					t.Fatalf("seed %d step %d: ExportKeyed = %v, %v; model seq %d", seed, step, p, err, want)
				}
				places[o.Ref] = p
				after := s.snap.Load()
				appended := &after.slots[:1][0] == &before.slots[:1][0] && len(after.slots) == len(before.slots)+1
				if appended != (kind == 0) || p.e.slot != len(after.slots)-1 {
					t.Fatalf("seed %d step %d: a first export into a slot array with room (bound %v, expiry %v, kind %d) appended %v, at slot %d of %d",
						seed, step, before.sweepAt, o.Expires, kind, appended, p.e.slot, len(after.slots))
				}
				roomy[kind]++
			default:
				now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			}
			for _, ref := range m.swept {
				if p, live := places[ref]; live {
					dead = append(dead, p)
					delete(places, ref)
				}
			}
			m.swept = m.swept[:0]
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
				if want, ok := held[st.seq]; !ok || st.Ref != want.Ref || !st.Expires.Equal(want.Expires) {
					t.Fatalf("seed %d step %d: the index holds seq %d (%v), model %v: %+v", seed, step, st.seq, st.Ref, ok, want)
				}
			}
			all, want := s.All(""), m.all(now)
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
		if m.seq < 800 || len(m.all(now)) == 0 || len(dead) == 0 || slices.Contains(roomy[:], 0) {
			t.Fatalf("seed %d: the deck numbered %d offers, left %d live, killed %d places and first-exported %v into a slot array with room: it does not exercise the index",
				seed, m.seq, len(m.all(now)), len(dead), roomy)
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

// heartbeatFleet registers n nodes whose offers expire ttl from now.
func heartbeatFleet(t testing.TB, s *Service, n int, ttl time.Duration) {
	t.Helper()
	batch := make([]Offer, n)
	for i := range batch {
		batch[i] = nodeOffer(i, float64(i%2000), 512)
		batch[i].Expires = s.now().Add(ttl)
	}
	if _, err := s.ExportBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedUpsertInPlace: a heartbeat — an upsert through a ref's place, or
// ExportKeyed of a ref that holds an offer — stores into the ref's slot and
// leaves the snapshot where it was, at a cost that does not depend on how
// many offers the index holds; the writes that change what it holds, or what
// its sweep bound promises, still publish a fresh snapshot.
func TestKeyedUpsertInPlace(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	const ttl = time.Minute
	s := NewService(clock)
	heartbeatFleet(t, s, 10000, ttl)
	var place Place
	// beat upserts node 7 through its place, or by reference when it has none.
	beat := func(expires time.Time) (seq int, inPlace bool) {
		t.Helper()
		before, v := s.snap.Load(), s.Version()
		o := nodeOffer(7, 1234, 512)
		o.Expires = expires
		var err error
		if !upsertOffer(s, place, o) {
			place, err = s.ExportKeyed(o)
		}
		if err != nil || s.Version() != v+1 {
			t.Fatalf("upsert: %v; version %d -> %d", err, v, s.Version())
		}
		return place.e.st.seq, s.snap.Load() == before
	}

	now = now.Add(ttl / 2)
	first, _ := s.Select(Query{Constraint: "mips == 1234"})
	for _, how := range []string{"by reference", "through the place"} {
		seq, inPlace := beat(now.Add(ttl))
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
	small := NewService(clock)
	heartbeatFleet(t, small, few, ttl)
	o := nodeOffer(7, 1, 1)
	o.Expires = now.Add(ttl)
	schema, values := recordParts(o.Properties)
	perBeat := func(s *Service) (byRef, byPlace float64) {
		p, _ := s.ExportKeyed(o)
		return testing.AllocsPerRun(200, func() { _, _ = s.ExportKeyed(o) }),
			testing.AllocsPerRun(200, func() { s.Upsert(p, o.Expires, schema, values) })
	}
	bigRef, bigPlace := perBeat(s)
	if oneRef, onePlace := perBeat(small); bigRef != oneRef || bigPlace != onePlace || bigRef > 1 || bigPlace > 1 {
		t.Fatalf("a heartbeat allocates %v (by ref) and %v (through its place) times among 10^4 offers, %v and %v among %d: it must not depend on the fleet",
			bigRef, bigPlace, oneRef, onePlace, few)
	}

	if _, inPlace := beat(now.Add(ttl / 4)); inPlace {
		t.Fatal("an offer expiring before the snapshot's sweep bound was stored in place: the bound no longer holds")
	}
	if _, inPlace := beat(time.Time{}); !inPlace {
		t.Fatal("an offer that never expires keeps any bound and should be stored in place")
	}
	if _, err := s.ExportBatch([]Offer{nodeOffer(7, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, inPlace := beat(now.Add(ttl)); !inPlace || s.byRef[nodeRef(7)] != place.e {
		t.Fatal("a batch's upsert of the ref killed its place, or the next heartbeat rebuilt")
	}
	s.Withdraw(place)
	if _, inPlace := beat(now.Add(ttl)); inPlace {
		t.Fatal("a ref's first offer has no slot to be stored into")
	}
	held := len(s.snap.Load().slots)
	now = now.Add(ttl) // past the sweep bound: the fleet's first offers are due
	if _, inPlace := beat(now.Add(ttl)); inPlace || len(s.snap.Load().slots) != 1 {
		t.Fatalf("a heartbeat past the sweep bound must compact: in place %v, the index holds %d offers (was %d)", inPlace, len(s.snap.Load().slots), held)
	}
	assertIndexConsistent(t, s)
}

// TestCountUsesSweepBound walks the clock across the sweep bound, set by the
// first of two groups of offers to expire, and on past the second's expiries:
// each group's offers stop counting as they expire although no write has
// compacted them, and the other group's count on.
func TestCountUsesSweepBound(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := NewService(func() time.Time { return now })
	soon, late := []int{0, 1, 2}, []int{3, 4, 5}
	for _, group := range []struct {
		nodes []int
		ttl   time.Duration
	}{{soon, 10 * time.Second}, {late, 100 * time.Second}} {
		for n, i := range group.nodes {
			o := nodeOffer(i, 100, 512)
			o.Expires = now.Add(group.ttl + time.Duration(n)*time.Second)
			if _, err := s.ExportBatch([]Offer{o}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range []struct {
		advance time.Duration
		nodes   int
	}{{0, 6}, {10 * time.Second, 5}, {time.Second, 4}, {time.Second, 3}, {88 * time.Second, 2}, {time.Minute, 0}} {
		now = now.Add(step.advance)
		if got, all := s.Count(), len(s.All("")); got != step.nodes || all != step.nodes {
			t.Fatalf("at +%v Count = %d, All = %d, want %d",
				now.Sub(time.Unix(1_700_000_000, 0)), got, all, step.nodes)
		}
	}
	if held := len(s.snap.Load().slots); held != 6 {
		t.Fatalf("a read compacted the index: it holds %d offers", held)
	}
}

// TestVisitRacesInPlaceUpserts: readers walk the index while writers heartbeat
// every ref, round after round — by reference first, through its place after
// that — the clock moving a quarter TTL between rounds —
// so no offer ever expires, nearly every write is a slot store, and every third
// round the first write finds the sweep bound passed and rebuilds the
// snapshot with nothing to compact. Each visit must see each ref exactly once (its old offer
// or its new one) when everything matches, at most once otherwise, and nothing
// that fails the constraint it was yielded for; a set visit (VisitMatchSet)
// must set the bits of exactly the constraints the offer it yields meets.
// Under -race a torn or unsynchronised publish is a report too.
func TestVisitRacesInPlaceUpserts(t *testing.T) {
	var tick atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	const refs, ttl = 300, time.Minute
	s := NewService(func() time.Time { return base.Add(time.Duration(tick.Load()) * ttl / 4) })
	heartbeatFleet(t, s, refs, ttl)
	var readers sync.WaitGroup
	stop := make(chan struct{})
	places := make([]Place, refs) // writer w owns the refs 3i+w
	var byRef atomic.Int64
	beatAll := func() {
		var writers sync.WaitGroup
		for w := 0; w < 3; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(tick.Load()*3 + int64(w)))
				for _, i := range rng.Perm(refs / 3) {
					n := 3*i + w
					o := nodeOffer(n, float64(rng.Intn(2000)), 512)
					o.Expires = s.now().Add(ttl)
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
				if floor == 0 && len(seen) != refs {
					t.Errorf("a visit of everything saw %d of %d refs", len(seen), refs)
					return
				}
			}
		}(r)
	}
	rebuilt := 0
	for round := 0; round < 40; round++ {
		before := s.snap.Load()
		beatAll()
		if s.snap.Load() != before {
			rebuilt++
		}
		tick.Add(1)
	}
	close(stop)
	readers.Wait()
	if rebuilt == 0 || rebuilt > 20 {
		t.Errorf("the snapshot was rebuilt in %d rounds of 40: the rounds are meant to be stores with a sweep now and then", rebuilt)
	}
	if got := s.Count(); got != refs || byRef.Load() != refs {
		t.Fatalf("Count = %d, want %d: heartbeats lost or duplicated an offer; %d exports by reference, want one a ref", got, refs, byRef.Load())
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

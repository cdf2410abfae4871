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

// These tests cover what a status update does since it stopped rebuilding its
// shard: the slot store itself, the sweep bound that decides when a write (or a
// read) must look at expiries, and readers racing the stores.

// modelTrader is the index as it behaved when every write rebuilt its shard:
// each write drops everything in the shard that has expired, reads skip the
// expired and drop nothing. What each shard holds — expired but unswept offers
// included — is all the state there is.
type modelTrader struct {
	seq     int
	version uint64
	shards  [shardsPerType][]Offer
}

// write is the one mutation: shard sh loses what drop selects and what has
// expired, and gains adds.
func (m *modelTrader) write(sh int, now time.Time, drop func(Offer) bool, adds ...Offer) {
	m.shards[sh] = append(slices.DeleteFunc(m.shards[sh], func(o Offer) bool {
		return drop != nil && drop(o) || o.expired(now)
	}), adds...)
}

func (m *modelTrader) number(o Offer) Offer {
	m.seq++
	o.seq = m.seq
	return o
}

// exportKeyed replaces the ref's oldest offer, if it has one, and returns the
// new offer's seq.
func (m *modelTrader) exportKeyed(o Offer, now time.Time) int {
	o, sh, oldest := m.number(o), refShard(o.Ref), 0
	for _, held := range m.shards[sh] {
		if held.Ref == o.Ref && (oldest == 0 || held.seq < oldest) {
			oldest = held.seq
		}
	}
	m.write(sh, now, func(held Offer) bool { return held.seq == oldest }, o)
	m.version++
	return o.seq
}

func (m *modelTrader) exportBatch(offers []Offer, now time.Time) {
	var touched [shardsPerType][]Offer
	for _, o := range offers {
		touched[refShard(o.Ref)] = append(touched[refShard(o.Ref)], m.number(o))
	}
	for sh, adds := range touched {
		if len(adds) > 0 {
			m.write(sh, now, nil, adds...)
		}
	}
	m.version++
}

func (m *modelTrader) withdrawRef(ref orb.ObjectRef, now time.Time) int {
	sh := refShard(ref)
	count := 0
	for _, o := range m.shards[sh] {
		if o.Ref == ref {
			count++
		}
	}
	if count > 0 {
		m.write(sh, now, func(o Offer) bool { return o.Ref == ref })
		m.version++
	}
	return count
}

func (m *modelTrader) all(now time.Time) []Offer {
	var live []Offer
	for sh := range m.shards {
		for _, o := range m.shards[sh] {
			if !o.expired(now) {
				live = append(live, o)
			}
		}
	}
	slices.SortFunc(live, func(a, b Offer) int { return a.seq - b.seq })
	return live
}

// TestCompactionTimingMatchesModel pins that the sweep bound changed nothing
// that can be observed: over a seeded deck of every write and of clock advances,
// with offers that never expire, expire soon and expire late, the service agrees
// with the rebuild-on-every-write model after every step on what each shard
// holds — expired offers not yet compacted included, so an expired offer
// leaves the index at the same write — and on Count, All and Version.
func TestCompactionTimingMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		now := time.Unix(1_700_000_000, 0)
		s, m := NewService(func() time.Time { return now }), &modelTrader{}
		rng := rand.New(rand.NewSource(seed))
		offer := func() Offer {
			o := nodeOffer(rng.Intn(150), float64(rng.Intn(2000)), 512) // ~2.3 refs a shard
			if ttl := []time.Duration{0, 5 * time.Second, time.Minute}[rng.Intn(3)]; ttl > 0 {
				o.Expires = now.Add(ttl)
			}
			return o
		}
		for step := 0; step < 1200; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1, 2, 3:
				o := offer()
				seq, err := s.ExportKeyed(o)
				if want := m.exportKeyed(o, now); err != nil || seq != want {
					t.Fatalf("seed %d step %d: ExportKeyed = %d, %v; model %d", seed, step, seq, err, want)
				}
			case 4, 5:
				batch := make([]Offer, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = offer()
				}
				if _, err := s.ExportBatch(batch); err != nil {
					t.Fatal(err)
				}
				m.exportBatch(batch, now)
			case 6, 7:
				ref := nodeRef(rng.Intn(150))
				if got, want := s.WithdrawRef("NodeStatus", ref), m.withdrawRef(ref, now); got != want {
					t.Fatalf("seed %d step %d: WithdrawRef = %d, model %d", seed, step, got, want)
				}
			default:
				now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			}

			ts := s.typeIndex("NodeStatus")
			for sh := range m.shards {
				var got []*stored
				if ts != nil {
					got = slotOffers(&ts.shards[sh])
				}
				if len(got) != len(m.shards[sh]) {
					t.Fatalf("seed %d step %d: shard %d holds %d offers, model %d", seed, step, sh, len(got), len(m.shards[sh]))
				}
				held := map[int]Offer{}
				for _, o := range m.shards[sh] {
					held[o.seq] = o
				}
				for _, st := range got {
					if want, ok := held[st.seq]; !ok || st.Ref != want.Ref || !st.Expires.Equal(want.Expires) {
						t.Fatalf("seed %d step %d: shard %d holds seq %d (%v), model %v: %+v", seed, step, sh, st.seq, st.Ref, ok, want)
					}
				}
			}
			all, want := s.All("NodeStatus"), m.all(now)
			if len(all) != len(want) || s.Count("NodeStatus") != len(want) {
				t.Fatalf("seed %d step %d: All = %d offers, Count = %d, model %d", seed, step, len(all), s.Count("NodeStatus"), len(want))
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
		if m.seq < 800 || len(m.all(now)) == 0 {
			t.Fatalf("seed %d: the deck issued %d offers and left %d live: it does not exercise the index", seed, m.seq, len(m.all(now)))
		}
	}
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

// TestKeyedUpsertInPlace: a heartbeat — ExportKeyed for a ref that holds one
// offer — stores into the ref's slot and leaves the shard's snapshot where it
// was, at a cost that does not depend on how many offers share the shard; the
// writes that change what the shard holds, or what its sweep bound promises,
// still publish a fresh snapshot.
func TestKeyedUpsertInPlace(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	const ttl = time.Minute
	s := NewService(clock)
	heartbeatFleet(t, s, 10000, ttl)
	sh := &s.typeIndex("NodeStatus").shards[refShard(nodeRef(7))]
	beat := func(expires time.Time) (seq int, inPlace bool) {
		t.Helper()
		before, v := sh.snap.Load(), s.Version()
		o := nodeOffer(7, 1234, 512)
		o.Expires = expires
		seq, err := s.ExportKeyed(o)
		if err != nil || s.Version() != v+1 {
			t.Fatalf("ExportKeyed = %d, %v; version %d -> %d", seq, err, v, s.Version())
		}
		return seq, sh.snap.Load() == before
	}

	now = now.Add(ttl / 2)
	first, _ := s.Select(Query{ServiceType: "NodeStatus", Constraint: "mips == 1234"})
	seq, inPlace := beat(now.Add(ttl))
	if !inPlace {
		t.Fatal("a heartbeat rebuilt its shard's snapshot")
	}
	got, err := s.Select(Query{ServiceType: "NodeStatus", Constraint: "mips == 1234"})
	if err != nil || len(got) != len(first)+1 || got[len(got)-1].Seq() != seq || s.Count("NodeStatus") != 10000 {
		t.Fatalf("after the heartbeat %d offers have its mips (was %d), %v; Count = %d", len(got), len(first), err, s.Count("NodeStatus"))
	}
	if own := sh.byRef[nodeRef(7)]; len(own) != 1 || own[0].st.seq != seq {
		t.Fatalf("after the heartbeat the ref holds %d offers; want only the new one, seq %d", len(own), seq)
	}
	assertIndexConsistent(t, s)

	small := NewService(clock)
	heartbeatFleet(t, small, 2*shardsPerType, ttl)
	o := nodeOffer(7, 1, 1)
	o.Expires = now.Add(ttl)
	perBeat := func(s *Service) float64 {
		return testing.AllocsPerRun(200, func() { _, _ = s.ExportKeyed(o) })
	}
	if big, one := perBeat(s), perBeat(small); big != one || big > 1 {
		t.Fatalf("a heartbeat allocates %v times among 10^4 offers and %v among %d: it must not depend on the shard", big, one, 2*shardsPerType)
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
	if _, inPlace := beat(now.Add(ttl)); inPlace || len(sh.byRef[nodeRef(7)]) != 2 {
		t.Fatalf("an upsert of a ref with two offers must rebuild and replace the older: in place %v, ref holds %d", inPlace, len(sh.byRef[nodeRef(7)]))
	}
	s.WithdrawRef("NodeStatus", nodeRef(7))
	if _, inPlace := beat(now.Add(ttl)); inPlace {
		t.Fatal("a ref's first offer has no slot to be stored into")
	}
	held := len(sh.snap.Load().slots)
	now = now.Add(ttl) // past the sweep bound: the fleet's first offers are due
	if _, inPlace := beat(now.Add(ttl)); inPlace || len(sh.snap.Load().slots) != 1 {
		t.Fatalf("a heartbeat past the sweep bound must compact: in place %v, shard holds %d offers (was %d)", inPlace, len(sh.snap.Load().slots), held)
	}
	assertIndexConsistent(t, s)
}

// TestCountUsesSweepBound walks the clock across one shard's sweep bound and
// not another's: the first shard's offers stop counting although no write has
// compacted them, the second's count on.
func TestCountUsesSweepBound(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := NewService(func() time.Time { return now })
	soon, late := 0, 1
	for refShard(nodeRef(late)) == refShard(nodeRef(soon)) {
		late++
	}
	for _, node := range []struct {
		i   int
		ttl time.Duration
	}{{soon, 10 * time.Second}, {late, 100 * time.Second}} {
		for n := 0; n < 3; n++ {
			o := nodeOffer(node.i, 100, 512)
			o.Expires = now.Add(node.ttl + time.Duration(n)*time.Second)
			if _, err := s.ExportBatch([]Offer{o}); err != nil {
				t.Fatal(err)
			}
		}
	}
	other := nodeOffer(soon, 1, 1)
	other.ServiceType = "Printer"
	if _, err := s.ExportKeyed(other); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		advance     time.Duration
		nodes, both int
	}{{0, 6, 7}, {10 * time.Second, 5, 6}, {time.Second, 4, 5}, {time.Second, 3, 4}, {88 * time.Second, 2, 3}, {time.Minute, 0, 1}} {
		now = now.Add(step.advance)
		if got, all := s.Count("NodeStatus"), len(s.All("NodeStatus")); got != step.nodes || all != step.nodes || s.Count("") != step.both {
			t.Fatalf("at +%v Count = %d, All = %d, want %d; Count of every type = %d, want %d",
				now.Sub(time.Unix(1_700_000_000, 0)), got, all, step.nodes, s.Count(""), step.both)
		}
	}
	for _, i := range []int{soon, late} {
		if held := len(s.typeIndex("NodeStatus").shards[refShard(nodeRef(i))].snap.Load().slots); held != 3 {
			t.Fatalf("a read compacted node %d's shard: it holds %d offers", i, held)
		}
	}
}

// TestVisitRacesInPlaceUpserts: readers walk the index while writers heartbeat
// every ref, round after round, the clock moving a quarter TTL between rounds —
// so no offer ever expires, nearly every write is a slot store, and every third
// round the first write to reach a shard finds its sweep bound passed and
// rebuilds it with nothing to compact. Each visit must see each ref exactly once (its old offer
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
	beatAll := func() {
		var writers sync.WaitGroup
		for w := 0; w < 3; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(tick.Load()*3 + int64(w)))
				for _, i := range rng.Perm(refs / 3) {
					o := nodeOffer(3*i+w, float64(rng.Intn(2000)), 512)
					o.Expires = s.now().Add(ttl)
					if _, err := s.ExportKeyed(o); err != nil {
						t.Errorf("ExportKeyed: %v", err)
						return
					}
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
					err = s.VisitMatches("NodeStatus", cons, func(o *Offer) {
						if mips, _ := o.Properties.Get("mips").AsNumber(); mips < floor {
							t.Errorf("%q yielded seq %d with mips %v", cons, o.Seq(), mips)
						}
						seen[o.Ref]++
					})
				} else if bad := s.VisitMatchSet("NodeStatus", set, func(o *Offer, met uint64) {
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
		before := s.typeIndex("NodeStatus").shards[0].snap.Load()
		beatAll()
		if s.typeIndex("NodeStatus").shards[0].snap.Load() != before {
			rebuilt++
		}
		tick.Add(1)
	}
	close(stop)
	readers.Wait()
	if rebuilt == 0 || rebuilt > 20 {
		t.Errorf("shard 0 was rebuilt in %d rounds of 40: the rounds are meant to be stores with a sweep now and then", rebuilt)
	}
	if got := s.Count("NodeStatus"); got != refs {
		t.Fatalf("Count = %d, want %d: heartbeats lost or duplicated an offer", got, refs)
	}
	assertIndexConsistent(t, s)
}

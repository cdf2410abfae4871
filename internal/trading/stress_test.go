package trading

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// These tests cover the sharded copy-on-write index added with the batched
// scheduling path: batch export semantics, the version counter the GRM's
// snapshot cache keys on, the shared-read contract of Select, and a
// seeded concurrent stress of every write path against the lock-free reads.

func TestExportBatchSemantics(t *testing.T) {
	s := NewService(nil)
	batch := make([]Offer, 10)
	for i := range batch {
		batch[i] = nodeOffer(i, float64(100*(i+1)), 512)
	}
	seqs, err := s.ExportBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 10 {
		t.Fatalf("seqs = %d, want 10", len(seqs))
	}
	if got := s.Count("NodeStatus"); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}

	// Batch export preserves the global export order: All must return the
	// batch in submission order, each offer with the seq it was given.
	all := s.All("NodeStatus")
	for i := range all {
		if all[i].Ref != nodeRef(i) || all[i].Seq() != seqs[i] {
			t.Fatalf("All[%d] = ref %v seq %d, want %v seq %d", i, all[i].Ref, all[i].Seq(), nodeRef(i), seqs[i])
		}
	}

	// A batch upserts: an offer replaces its ref's, and the later of two for
	// one ref in the batch wins.
	seqs, err = s.ExportBatch([]Offer{nodeOffer(3, 1, 1), nodeOffer(10, 1, 1), nodeOffer(3, 2, 2)})
	if err != nil || s.Count("NodeStatus") != 11 {
		t.Fatalf("ExportBatch = %v, %v; Count = %d, want 11", seqs, err, s.Count("NodeStatus"))
	}
	if got, _ := s.Select(Query{ServiceType: "NodeStatus", Constraint: "ram == 2"}); len(got) != 1 || got[0].Ref != nodeRef(3) || got[0].Seq() != seqs[2] {
		t.Fatalf("node 3 holds %v; want only the batch's later offer, seq %d", got, seqs[2])
	}
	assertIndexConsistent(t, s)

	// A typeless offer anywhere in the batch rejects the whole batch.
	if _, err := s.ExportBatch([]Offer{nodeOffer(90, 1, 1), {}}); err == nil {
		t.Fatal("batch with typeless offer accepted")
	}
	if got := s.Count("NodeStatus"); got != 11 {
		t.Fatalf("Count after rejected batch = %d, want 11 (atomic validation)", got)
	}
}

func TestVersionBumpsOnWritesOnly(t *testing.T) {
	s := NewService(nil)
	v0 := s.Version()

	if _, err := s.ExportKeyed(nodeOffer(1, 1000, 512)); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v0+1 {
		t.Fatalf("a first ExportKeyed moved the version %d -> %d, want one step", v0, s.Version())
	}

	v := s.Version()
	if _, err := s.Select(Query{ServiceType: "NodeStatus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectPointers(Query{ServiceType: "NodeStatus"}); err != nil {
		t.Fatal(err)
	}
	s.Count("NodeStatus")
	s.All("NodeStatus")
	if s.Withdraw(Place{}) || s.Version() != v {
		t.Fatal("a read path, or a withdrawal of nothing, bumped the version")
	}

	var fifty Place
	writes := []struct {
		name string
		op   func() error
	}{
		{"ExportKeyed", func() (err error) { fifty, err = s.ExportKeyed(nodeOffer(50, 900, 512)); return err }},
		{"ExportKeyed in place", func() error { _, err := s.ExportKeyed(nodeOffer(50, 901, 512)); return err }},
		{"Upsert", func() error { return errorIf(!upsertOffer(s, fifty, nodeOffer(50, 902, 512)), "dropped") }},
		{"ExportBatch", func() error { _, err := s.ExportBatch([]Offer{nodeOffer(2, 1, 1), nodeOffer(3, 1, 1)}); return err }},
		{"Withdraw", func() error { return errorIf(!s.Withdraw(fifty), "removed nothing") }},
	}
	for _, w := range writes {
		v = s.Version()
		if err := w.op(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s.Version() != v+1 {
			t.Fatalf("%s moved the version %d -> %d, want one step", w.name, v, s.Version())
		}
	}
	if v = s.Version(); upsertOffer(s, fifty, nodeOffer(50, 903, 512)) || s.Withdraw(fifty) || s.Version() != v {
		t.Fatal("an upsert or a withdrawal through a dead place bumped the version")
	}
}

// errorIf returns an error saying what when failed is true.
func errorIf(failed bool, what string) error {
	if failed {
		return errors.New(what)
	}
	return nil
}

// TestSelectSharedSharesProperties pins the read contract: SelectPointers
// returns the index's own offer, which is what the GRM batch matcher caches
// across a batch; Select (and its alias SelectShared) and All copy the offer,
// so a caller may overwrite any field of what it got, and share the stored
// property record, which has no method that writes.
func TestSelectSharedSharesProperties(t *testing.T) {
	s := NewService(nil)
	if _, err := s.ExportKeyed(nodeOffer(1, 1000, 512)); err != nil {
		t.Fatal(err)
	}
	own := &slotOffers(&s.typeIndex("NodeStatus").shards[refShard(nodeRef(1))])[0].Offer
	stored := own.Properties

	ptrs, err := s.SelectPointers(Query{ServiceType: "NodeStatus"})
	if err != nil || len(ptrs) != 1 || ptrs[0] != own {
		t.Fatalf("SelectPointers = %v, %v; want the index's own offer %p", ptrs, err, own)
	}

	all := func(q Query) ([]Offer, error) { return s.All(q.ServiceType), nil }
	for name, sel := range map[string]func(Query) ([]Offer, error){"Select": s.Select, "SelectShared": s.SelectShared, "All": all} {
		got, err := sel(Query{ServiceType: "NodeStatus"})
		if err != nil || len(got) != 1 {
			t.Fatalf("%s = %d offers, %v", name, len(got), err)
		}
		if got[0].Properties != stored {
			t.Fatalf("%s copied the property record; want the stored one shared", name)
		}
		got[0].Ref = nodeRef(2)
		got[0].Properties = constraint.Properties{"mips": constraint.Number(-1)}.Record()
	}
	if own.Ref != nodeRef(1) || own.Properties != stored || own.Properties.Get("mips") != constraint.Number(1000) {
		t.Fatal("overwriting a returned offer changed the stored one")
	}
}

// TestConcurrentTradingStress races every write path (ExportKeyed of a new ref
// and of a held one, Upsert, ExportBatch, Withdraw) against the lock-free read paths
// (Select, SelectPointers, VisitMatches, Count, All) under the race detector.
// CHAOS_SEED picks the operation mix per goroutine, mirroring the seeded
// suites in `make chaos`; the final consistency check verifies the reverse
// index and the shard snapshots agree after the storm.
func TestConcurrentTradingStress(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	s := NewService(nil)
	const (
		writers = 4
		readers = 4
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var owned []Place
			held, err := s.ExportKeyed(nodeOffer(w*10000+9000, 0, 256)) // no other case reaches its ref
			if err != nil {
				t.Errorf("ExportKeyed: %v", err)
				return
			}
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0:
					p, err := s.ExportKeyed(nodeOffer(w*10000+i, float64(rng.Intn(2000)), 512))
					if err != nil {
						t.Errorf("ExportKeyed of a new ref: %v", err)
						return
					}
					owned = append(owned, p)
				case 1:
					if !upsertOffer(s, held, nodeOffer(w*10000+9000, float64(rng.Intn(2000)), 256)) {
						t.Error("an upsert through a live place was dropped")
						return
					}
				case 2:
					batch := []Offer{
						nodeOffer(w*10000+i, 100, 128),
						nodeOffer(w*10000+i+5000, 200, 128),
					}
					if _, err := s.ExportBatch(batch); err != nil {
						t.Errorf("ExportBatch: %v", err)
						return
					}
				case 3:
					if len(owned) > 0 {
						s.Withdraw(owned[len(owned)-1])
						owned = owned[:len(owned)-1]
					}
				case 4:
					withdrawRef(s, nodeRef(w*10000+rng.Intn(iters)))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 100 + int64(r)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0:
					if _, err := s.Select(Query{ServiceType: "NodeStatus", Constraint: "mips >= 500"}); err != nil {
						t.Errorf("Select: %v", err)
						return
					}
				case 1:
					if _, err := s.SelectPointers(Query{ServiceType: "NodeStatus"}); err != nil {
						t.Errorf("SelectPointers: %v", err)
						return
					}
				case 2:
					s.Count("NodeStatus")
				case 3:
					s.All("NodeStatus")
				case 4:
					seen := map[*Offer]bool{}
					err := s.VisitMatches("NodeStatus", "mips >= 500", func(o *Offer) {
						if mips, _ := o.Properties.Get("mips").AsNumber(); mips < 500 || seen[o] {
							t.Errorf("visit yielded seq %d (mips %v, seen before: %v)", o.Seq(), mips, seen[o])
						}
						seen[o] = true
					})
					if err != nil {
						t.Errorf("VisitMatches: %v", err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if got, all := s.Count("NodeStatus"), len(s.All("NodeStatus")); got != all {
		t.Fatalf("Count = %d but All returned %d offers", got, all)
	}
	assertIndexConsistent(t, s)
}

// slotOffers loads what a shard's snapshot holds, slot by slot.
func slotOffers(sh *shard) []*stored {
	slots := sh.snap.Load().slots
	out := make([]*stored, len(slots))
	for i := range slots {
		out[i] = slots[i].Load()
	}
	return out
}

// withdrawRef withdraws ref's offer through its place, as the exporter holding
// the place would, and reports whether there was one.
func withdrawRef(s *Service, ref orb.ObjectRef) bool {
	ts := s.typeIndex("NodeStatus")
	if ts == nil {
		return false
	}
	sh := &ts.shards[refShard(ref)]
	sh.mu.Lock()
	e := sh.byRef[ref]
	sh.mu.Unlock()
	return e != nil && s.Withdraw(Place{e})
}

// shardmates returns n node numbers, from first on, whose refs share node
// first's shard.
func shardmates(first, n int) []int {
	var out []int
	for i := first; len(out) < n; i++ {
		if refShard(nodeRef(i)) == refShard(nodeRef(first)) {
			out = append(out, i)
		}
	}
	return out
}

// assertIndexConsistent checks, on a quiescent service, what the index's
// writers keep true and its readers rest on: a shard holds one entry per ref,
// byRef and entries list the same entries, every live entry's slot holds that
// entry's offer, of its ref, and a shard's slots hold exactly its entries'
// offers, and every slot of its array past the snapshot's end is nil; every
// live offer's seq is unique across the whole service and its record is its
// own, and SelectPointers and All come back strictly ascending in Seq. Slot
// order itself is not an invariant: an upsert keeps its slot.
func assertIndexConsistent(t *testing.T, s *Service) {
	t.Helper()
	holder := map[int]string{} // seq → the type and shard holding it
	for typ, ts := range *s.types.Load() {
		for i := range ts.shards {
			sh := &ts.shards[i]
			sh.mu.Lock()
			offers := slotOffers(sh)
			slots := sh.snap.Load().slots
			for j := len(slots); j < cap(slots); j++ {
				if slots[:cap(slots)][j].Load() != nil {
					t.Errorf("%s shard %d: slot %d, past the snapshot's %d, holds an offer", typ, i, j, len(slots))
				}
			}
			if len(sh.entries) != len(offers) || len(sh.byRef) != len(offers) {
				t.Errorf("%s shard %d: %d slots, %d entries, %d refs in byRef", typ, i, len(offers), len(sh.entries), len(sh.byRef))
			}
			for j, e := range sh.entries {
				if e.sh != sh || e.slot != j || j >= len(offers) || offers[j] != e.st || sh.byRef[e.st.Ref] != e {
					t.Errorf("%s shard %d: entries[%d] (slot %d, seq %d) is not the entry of the offer in its slot", typ, i, j, e.slot, e.st.seq)
				}
			}
			for ref, e := range sh.byRef {
				if e.st.Ref != ref || e.slot < 0 {
					t.Errorf("%s shard %d: byRef[%v] holds seq %d of %v at slot %d", typ, i, ref, e.st.seq, e.st.Ref, e.slot)
				}
			}
			sh.mu.Unlock()
			for _, st := range offers {
				where := fmt.Sprintf("%s shard %d", typ, i)
				if prev, dup := holder[st.seq]; dup || st.seq <= 0 {
					t.Errorf("%s: an offer has seq %d, which %q holds too (or is no export's)", where, st.seq, prev)
				}
				holder[st.seq] = where
				if st.Properties != &st.rec {
					t.Errorf("%s: offer with seq %d reads another's record", where, st.seq)
				}
			}
		}
		ptrs, err := s.SelectPointers(Query{ServiceType: typ})
		if err != nil {
			t.Fatal(err)
		}
		all := s.All(typ)
		if len(all) != len(ptrs) {
			t.Errorf("%s: All returns %d offers, SelectPointers %d", typ, len(all), len(ptrs))
		}
		for j := 1; j < len(ptrs); j++ {
			if ptrs[j-1].Seq() >= ptrs[j].Seq() || all[j-1].Seq() >= all[j].Seq() {
				t.Fatalf("%s: position %d not in export order: SelectPointers seq %d then %d, All %d then %d",
					typ, j, ptrs[j-1].Seq(), ptrs[j].Seq(), all[j-1].Seq(), all[j].Seq())
			}
		}
	}
}

// TestSeqOrderSameShard races every write path into one shard: sixteen
// writers on eight refs of that shard, two to a ref, with property records of
// different sizes. A quarter of the writers go through ExportBatch, whose
// numbers are drawn before the lock, so a later number can be published first;
// a quarter upsert through a place, and the rest by reference. Slot order may
// then be anything; each ref holds one offer, and the queries come back in
// seq.
func TestSeqOrderSameShard(t *testing.T) {
	refs := shardmates(0, 8)
	for round := 0; round < 100; round++ {
		s := NewService(nil)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				props := constraint.Properties{}
				for p := 0; p < g*8; p++ {
					props[fmt.Sprintf("p%d", p)] = constraint.Number(float64(p))
				}
				o := Offer{ServiceType: "NodeStatus", Ref: nodeRef(refs[g/2]), Properties: props.Record()}
				var p Place
				for i := 0; i < 30; i++ {
					var err error
					switch {
					case g%4 == 3:
						_, err = s.ExportBatch([]Offer{o, o})
					case g%4 == 2 && upsertOffer(s, p, o):
					default:
						p, err = s.ExportKeyed(o)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got, want := s.Count("NodeStatus"), len(refs); got != want {
			t.Fatalf("round %d: %d offers, want %d", round, got, want)
		}
		all := s.All("NodeStatus")
		for i := 1; i < len(all); i++ {
			if all[i-1].seq >= all[i].seq {
				t.Fatalf("round %d: out of order at %d: seq %d then %d", round, i, all[i-1].seq, all[i].seq)
			}
		}
		assertIndexConsistent(t, s)
	}
}

// TestHeldPointersNeverChange is the immutability the GRM's candidate path
// relies on: the offers SelectPointers returns are the index's own, and
// stay exactly as they were however many updates and withdrawals follow. A
// reader takes one query's pointers and a value copy of each, then re-reads
// through the pointers, and reads every offer a fresh query returns, while
// writers upsert — by reference, and through the places their exports
// returned, from one value array each writer rewrites before every upsert —
// and withdraw the very same references. Half the held offers were written
// through places too, from one array rewritten since. Under -race any write to
// a published offer is also a report.
func TestHeldPointersNeverChange(t *testing.T) {
	s := NewService(nil)
	const nodes = 64
	schema, values := recordParts(nodeOffer(0, 0, 0).Properties)
	for i := 0; i < nodes; i++ {
		o := nodeOffer(i, float64(100+i), 512)
		p, err := s.ExportKeyed(o)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			_, fresh := recordParts(o.Properties)
			copy(values, fresh)
			if !s.Upsert(p, o.Expires, schema, values) {
				t.Fatal("an upsert through a live place was dropped")
			}
		}
	}
	held, err := s.SelectPointers(Query{ServiceType: "NodeStatus", Constraint: "mips >= 100"})
	if err != nil || len(held) != nodes {
		t.Fatalf("SelectPointers = %d offers, %v", len(held), err)
	}
	type copyOf struct {
		offer Offer
		props map[string]constraint.Value
	}
	copies := make([]copyOf, len(held))
	for i, o := range held {
		copies[i] = copyOf{offer: *o, props: maps.Collect(o.Properties.All())}
	}
	clear(values)
	check := func() {
		for i, o := range held {
			c := copies[i]
			if o.seq != c.offer.seq || o.Ref != c.offer.Ref || !o.Expires.Equal(c.offer.Expires) ||
				o.Properties != c.offer.Properties || !reflect.DeepEqual(maps.Collect(o.Properties.All()), c.props) {
				t.Errorf("held offer %d changed: %+v, was %+v", i, *o, c.offer)
				return
			}
		}
		live, err := s.SelectPointers(Query{ServiceType: "NodeStatus"})
		if err != nil {
			t.Error(err)
			return
		}
		for _, o := range live {
			maps.Collect(o.Properties.All())
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			places := map[int]Place{}
			schema, values := recordParts(nodeOffer(0, 0, 0).Properties)
			for i := 0; i < 400; i++ {
				n := rng.Intn(nodes)
				o := nodeOffer(n, float64(rng.Intn(2000)), 256)
				switch rng.Intn(4) {
				case 0:
					withdrawRef(s, nodeRef(n))
					continue
				case 1:
					_, fresh := recordParts(o.Properties)
					copy(values, fresh)
					if s.Upsert(places[n], o.Expires, schema, values) {
						continue
					}
				}
				p, err := s.ExportKeyed(o)
				if err != nil {
					t.Errorf("ExportKeyed: %v", err)
					return
				}
				places[n] = p
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			check()
		}
	}()
	wg.Wait()
	check()
	assertIndexConsistent(t, s)
}

// TestVersionCountsConcurrentWrites: the GRM's snapshot cache takes an
// unchanged Version to mean an unchanged index, so every write must advance it
// exactly once — a store into a slot as much as a rebuild — and a write that
// changes nothing must not. Writers export nodes over all 64 shards, each node
// under its own ref, and then drive them as the GRM does: upserts through the
// node's place, moves to a new ref (an export by reference, and a withdrawal
// of the old place), departures (a withdrawal, after which upserts and
// withdrawals through the dead place are dropped) and returns (an export by
// reference). A reader walks the index with VisitMatchSet meanwhile; the
// version must never go back while it watches, and must end as many steps on
// as there were writes.
func TestVersionCountsConcurrentWrites(t *testing.T) {
	const writers, nodes, iters = 4, 512, 400
	shards := map[int]bool{}
	for i := 0; i < nodes; i++ {
		shards[refShard(nodeRef(i))] = true
	}
	if len(shards) != shardsPerType {
		t.Fatalf("%d refs cover %d of the %d shards", nodes, len(shards), shardsPerType)
	}
	s := NewService(nil)
	v0 := s.Version()
	var (
		writes, live atomic.Int64
		wg           sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type node struct {
				ref      orb.ObjectRef
				place    Place
				departed bool
			}
			own := make([]node, nodes/writers) // this writer's nodes only
			offer := func(n *node) Offer {
				o := nodeOffer(0, float64(rng.Intn(2000)), 512)
				o.Ref = n.ref
				return o
			}
			export := func(n *node) bool {
				p, err := s.ExportKeyed(offer(n))
				if err != nil {
					t.Errorf("ExportKeyed: %v", err)
					return false
				}
				n.place = p
				writes.Add(1)
				return true
			}
			for i := range own {
				own[i].ref = nodeRef(i*writers + w)
				if !export(&own[i]) {
					return
				}
			}
			for i := 0; i < iters; i++ {
				n := &own[rng.Intn(len(own))]
				switch op := rng.Intn(8); {
				case n.departed && op < 4: // back, by reference
					n.departed = false
					if !export(n) {
						return
					}
				case n.departed: // a stale write through the dead place
					if upsertOffer(s, n.place, offer(n)) || s.Withdraw(n.place) {
						t.Errorf("a dead place of %v wrote to the index", n.ref)
						return
					}
				case op == 0: // a departure
					if !s.Withdraw(n.place) {
						t.Errorf("withdrawing %v through its live place removed nothing", n.ref)
						return
					}
					n.departed = true
					writes.Add(1)
				case op == 1: // a move to a new ref, then the old offer's withdrawal
					old := n.place
					n.ref.Endpoint.Addr += "'"
					if !export(n) {
						return
					}
					if !s.Withdraw(old) {
						t.Errorf("withdrawing the offer %v moved from removed nothing", n.ref)
						return
					}
					writes.Add(1)
				default:
					if !upsertOffer(s, n.place, offer(n)) {
						t.Errorf("an upsert through the live place of %v was dropped", n.ref)
						return
					}
					writes.Add(1)
				}
			}
			for _, n := range own {
				if !n.departed {
					live.Add(1)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		set := []string{"mips >= 1000", "mips < 1000"}
		seen := make(map[orb.ObjectRef]bool, nodes)
		for last := s.Version(); ; {
			clear(seen)
			s.VisitMatchSet("NodeStatus", set, func(o *Offer, met uint64) {
				want := uint64(1)
				if mips, _ := o.Properties.Get("mips").AsNumber(); mips < 1000 {
					want = 2
				}
				if met != want || seen[o.Ref] {
					t.Errorf("the set visit yielded %v with bits %b (want %b), seen before: %v", o.Ref, met, want, seen[o.Ref])
				}
				seen[o.Ref] = true
			})
			v := s.Version()
			if v < last {
				t.Errorf("the version went back from %d to %d", last, v)
				return
			}
			last = v
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()
	if got, want := s.Version()-v0, uint64(writes.Load()); got != want {
		t.Fatalf("the version advanced %d times over %d writes", got, want)
	}
	if got := s.Count("NodeStatus"); got != int(live.Load()) {
		t.Fatalf("Count = %d, want the %d nodes that have not departed", got, live.Load())
	}
	assertIndexConsistent(t, s)
}

package trading

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
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
	ids, err := s.ExportBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("ids = %d, want 10", len(ids))
	}
	if got := s.Count("NodeStatus"); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	for i, id := range ids {
		off, err := s.Describe(id)
		if err != nil {
			t.Fatalf("Describe(%s): %v", id, err)
		}
		if off.Ref != nodeRef(i) {
			t.Fatalf("offer %d ref = %v", i, off.Ref)
		}
	}

	// Batch export preserves the global export order: All must return the
	// batch in submission order, interleaved correctly with prior exports.
	all := s.All("NodeStatus")
	for i := range all {
		if all[i].Ref != nodeRef(i) {
			t.Fatalf("All[%d].Ref = %v, want %v", i, all[i].Ref, nodeRef(i))
		}
	}

	// A typeless offer anywhere in the batch rejects the whole batch.
	if _, err := s.ExportBatch([]Offer{nodeOffer(90, 1, 1), {}}); err == nil {
		t.Fatal("batch with typeless offer accepted")
	}
	if got := s.Count("NodeStatus"); got != 10 {
		t.Fatalf("Count after rejected batch = %d, want 10 (atomic validation)", got)
	}
}

func TestVersionBumpsOnWritesOnly(t *testing.T) {
	s := NewService(nil)
	v0 := s.Version()

	id, err := s.Export(nodeOffer(1, 1000, 512))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() == v0 {
		t.Fatal("Export did not bump the version")
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
	if s.Version() != v {
		t.Fatal("a read path bumped the version")
	}

	writes := []struct {
		name string
		op   func() error
	}{
		{"ExportKeyed", func() error { _, err := s.ExportKeyed(nodeOffer(50, 900, 512)); return err }},
		{"ExportBatch", func() error { _, err := s.ExportBatch([]Offer{nodeOffer(2, 1, 1)}); return err }},
		{"Withdraw", func() error { return s.Withdraw(id) }},
		{"WithdrawRef", func() error { s.WithdrawRef("NodeStatus", nodeRef(50)); return nil }},
	}
	for _, w := range writes {
		v = s.Version()
		if err := w.op(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s.Version() == v {
			t.Fatalf("%s did not bump the version", w.name)
		}
	}
}

// TestSelectSharedSharesProperties pins the read contract: SelectPointers
// returns the index's own offer, which is what the GRM batch matcher caches
// across a batch; Select (and its alias SelectShared) and Describe copy the
// offer, so a caller may overwrite any field of what it got, and share the
// stored property record, which has no method that writes.
func TestSelectSharedSharesProperties(t *testing.T) {
	s := NewService(nil)
	id, err := s.Export(nodeOffer(1, 1000, 512))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	own := &s.ids[id].st.Offer
	s.mu.Unlock()
	stored := own.Properties

	ptrs, err := s.SelectPointers(Query{ServiceType: "NodeStatus"})
	if err != nil || len(ptrs) != 1 || ptrs[0] != own {
		t.Fatalf("SelectPointers = %v, %v; want the index's own offer %p", ptrs, err, own)
	}

	for name, sel := range map[string]func(Query) ([]Offer, error){"Select": s.Select, "SelectShared": s.SelectShared} {
		got, err := sel(Query{ServiceType: "NodeStatus"})
		if err != nil || len(got) != 1 {
			t.Fatalf("%s = %d offers, %v", name, len(got), err)
		}
		if got[0].Properties != stored {
			t.Fatalf("%s copied the property record; want the stored one shared", name)
		}
		got[0].ID = "mine"
		got[0].Properties = constraint.Properties{"mips": constraint.Number(-1)}.Record()
	}
	after, err := s.Describe(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.ID != id || after.Properties != stored || after.Properties.Get("mips") != constraint.Number(1000) {
		t.Fatal("overwriting a Select result changed the stored offer")
	}
}

// TestConcurrentTradingStress races every write path (Export, ExportKeyed,
// ExportBatch, Withdraw, WithdrawRef) against the lock-free read paths
// (Select, SelectPointers, VisitMatches, Count, All, Describe) under the race
// detector.
// CHAOS_SEED picks the operation mix per goroutine, mirroring the seeded
// suites in `make chaos`; the final consistency check verifies the id map
// and the shard snapshots agree after the storm.
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
			var owned []string
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0:
					id, err := s.Export(nodeOffer(w*10000+i, float64(rng.Intn(2000)), 512))
					if err != nil {
						t.Errorf("Export: %v", err)
						return
					}
					owned = append(owned, id)
				case 1:
					if _, err := s.ExportKeyed(nodeOffer(w, float64(rng.Intn(2000)), 256)); err != nil {
						t.Errorf("ExportKeyed: %v", err)
						return
					}
				case 2:
					batch := []Offer{
						nodeOffer(w*10000+i, 100, 128),
						nodeOffer(w*10000+i+5000, 200, 128),
					}
					ids, err := s.ExportBatch(batch)
					if err != nil {
						t.Errorf("ExportBatch: %v", err)
						return
					}
					owned = append(owned, ids...)
				case 3:
					if len(owned) > 0 {
						// Withdraw may race a keyed upsert that evicted the
						// same ref; ErrUnknownOffer is then legitimate.
						s.Withdraw(owned[len(owned)-1])
						owned = owned[:len(owned)-1]
					}
				case 4:
					s.WithdrawRef("NodeStatus", nodeRef(w*10000+rng.Intn(iters)))
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
					if _, err := s.SelectPointers(Query{ServiceType: "NodeStatus", Preference: "mips"}); err != nil {
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
							t.Errorf("visit yielded %s (mips %v, seen before: %v)", o.ID, mips, seen[o])
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

	// Consistency: every surviving id resolves, and the merged snapshot view
	// agrees with the id map's count for the type.
	all := s.All("NodeStatus")
	if got := s.Count("NodeStatus"); got != len(all) {
		t.Fatalf("Count = %d but All returned %d offers", got, len(all))
	}
	for i := 1; i < len(all); i++ {
		if offerSeq(all[i-1].ID) >= offerSeq(all[i].ID) {
			t.Fatalf("All not in export order at %d: %s then %s", i, all[i-1].ID, all[i].ID)
		}
	}
	for _, off := range all {
		if _, err := s.Describe(off.ID); err != nil {
			t.Fatalf("surviving offer %s does not resolve: %v", off.ID, err)
		}
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

// assertIndexConsistent checks, on a quiescent service, what the index's
// writers keep true and its readers rest on: each per-ref list ascends strictly
// by seq and knows the slot of each of its offers, a shard's slots hold exactly
// the union of its per-ref lists, an offer's ID is the one derived from its
// seq, and SelectPointers and All come back strictly ascending in Seq. Slot
// order itself is not an invariant: an upsert reuses its victim's slot.
func assertIndexConsistent(t *testing.T, s *Service) {
	t.Helper()
	for typ, ts := range *s.types.Load() {
		for i := range ts.shards {
			sh := &ts.shards[i]
			sh.mu.Lock()
			offers, indexed := slotOffers(sh), 0
			for ref, list := range sh.byRef {
				indexed += len(list)
				for j, e := range list {
					if j > 0 && list[j-1].st.seq >= e.st.seq {
						t.Errorf("%s shard %d: byRef[%v] out of order: seq %d then %d", typ, i, ref, list[j-1].st.seq, e.st.seq)
					}
					if e.slot >= len(offers) || offers[e.slot] != e.st || e.st.Ref != ref {
						t.Errorf("%s shard %d: byRef[%v] places seq %d in slot %d, which does not hold it", typ, i, ref, e.st.seq, e.slot)
					}
				}
			}
			sh.mu.Unlock()
			if indexed != len(offers) {
				t.Errorf("%s shard %d: %d slots but %d offers in byRef", typ, i, len(offers), indexed)
			}
			for _, st := range offers {
				if st.ID != fmt.Sprintf("offer-%d", st.seq) || st.Properties != &st.rec {
					t.Errorf("%s shard %d: offer with seq %d has ID %s (or another's record)", typ, i, st.seq, st.ID)
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

// TestSeqOrderSameShard races every insert path into one shard: sixteen
// writers share one exporting reference, with property records of different
// sizes, and every fourth writer goes through ExportBatch, whose numbers are
// drawn before the lock, so a later number can be published first. Slot order
// may then be anything; the per-ref list must still ascend (a keyed upsert
// replaces its first entry as the oldest) and the queries come back in seq.
func TestSeqOrderSameShard(t *testing.T) {
	ref := orb.ObjectRef{Endpoint: orb.Endpoint{Net: "loop", Addr: "x"}, Key: "k"}
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
				o := Offer{ServiceType: "T", Ref: ref, Properties: props.Record()}
				for i := 0; i < 30; i++ {
					var err error
					if g%4 == 3 {
						_, err = s.ExportBatch([]Offer{o, o})
					} else {
						_, err = s.Export(o)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got, want := s.Count("T"), (12+4*2)*30; got != want {
			t.Fatalf("round %d: %d offers, want %d", round, got, want)
		}
		all := s.All("T")
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
// through the pointers while writers upsert and withdraw the very same
// references; under -race any write to a published offer is also a report.
func TestHeldPointersNeverChange(t *testing.T) {
	s := NewService(nil)
	const nodes = 64
	for i := 0; i < nodes; i++ {
		if _, err := s.ExportKeyed(nodeOffer(i, float64(100+i), 512)); err != nil {
			t.Fatal(err)
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
	check := func() {
		for i, o := range held {
			c := copies[i]
			if o.ID != c.offer.ID || o.seq != c.offer.seq || o.Ref != c.offer.Ref || !o.Expires.Equal(c.offer.Expires) ||
				o.Properties != c.offer.Properties || !reflect.DeepEqual(maps.Collect(o.Properties.All()), c.props) {
				t.Errorf("held offer %d changed: %+v, was %+v", i, *o, c.offer)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				n := rng.Intn(nodes)
				if rng.Intn(4) == 0 {
					s.WithdrawRef("NodeStatus", nodeRef(n))
				} else if _, err := s.ExportKeyed(nodeOffer(n, float64(rng.Intn(2000)), 256)); err != nil {
					t.Errorf("ExportKeyed: %v", err)
					return
				}
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

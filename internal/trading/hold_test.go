package trading

import (
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"integrade/internal/constraint"
)

// holdFleet exports n nodes by reference and returns their places and the
// schema of their records.
func holdFleet(t testing.TB, s *Service, n int) ([]Place, *constraint.Schema) {
	t.Helper()
	places := make([]Place, n)
	for i := range places {
		p, err := s.ExportKeyed(nodeOffer(i, float64(i), 512))
		if err != nil {
			t.Fatal(err)
		}
		places[i] = p
	}
	schema, _ := recordParts(nodeOffer(0, 0, 0).Properties)
	return places, schema
}

// nodeValues is node i's values for a round: figures of its own each round.
func nodeValues(i, round int) []constraint.Value {
	_, values := recordParts(nodeOffer(i, float64(round*10000+i), float64(256+round)).Properties)
	return values
}

// heldOffer is an offer a reader keeps, and what it read of it at the visit.
type heldOffer struct {
	o     *Offer
	seq   int
	props map[string]constraint.Value
}

func holdOffer(o *Offer) heldOffer {
	return heldOffer{o: o, seq: o.seq, props: maps.Collect(o.Properties.All())}
}

// changed reports whether the held offer no longer reads as it did.
func (h heldOffer) changed() bool {
	return h.o.seq != h.seq || !reflect.DeepEqual(maps.Collect(h.o.Properties.All()), h.props)
}

// TestHeldOffersOutliveUpserts: readers take a Hold, keep every offer a
// VisitMatches yields under it, and re-read them all while writers upsert each
// place twice, from value arrays they rewrite before every upsert: every held
// offer must read as it did at the visit until Release. The holds are taken
// and released between rounds, so the writers then run two rounds with no hold
// live, which must rewrite every place's spare in place: the test checks that
// they did, or it would prove nothing. Under -race a rewrite of an offer a
// reader holds is a report too.
func TestHeldOffersOutliveUpserts(t *testing.T) {
	const nodes, writers, readers, cycles = 64, 4, 2, 8
	s := NewService(nil)
	places, schema := holdFleet(t, s, nodes)
	round := 0
	// beat upserts every place once, writer w taking every writers-th from
	// w on, each from a value array of its own it rewrites before every upsert.
	beat := func() {
		round++
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func(w, round int) {
				defer wg.Done()
				values := nodeValues(0, 0)
				for i := w; i < nodes; i += writers {
					copy(values, nodeValues(i, round))
					if !s.Upsert(places[i], time.Time{}, schema, values) {
						t.Error("an upsert through a live place was dropped")
					}
				}
			}(w, round)
		}
		wg.Wait()
	}
	// current is each place's offer.
	current := func() []*stored {
		out := make([]*stored, nodes)
		for i, p := range places {
			out[i] = p.e.st
		}
		return out
	}

	hold, release := make(chan struct{}), make(chan struct{})
	var visited, released sync.WaitGroup
	for range readers {
		go func() {
			for range hold {
				h := s.Hold()
				var kept []heldOffer
				if err := s.VisitMatches("NodeStatus", "", func(o *Offer) { kept = append(kept, holdOffer(o)) }); err != nil {
					t.Error(err)
				}
				if len(kept) != nodes {
					t.Errorf("a visit yielded %d offers, want %d", len(kept), nodes)
				}
				visited.Done()
				for reading, bad := true, false; reading; {
					select {
					case <-release:
						reading = false
					default:
					}
					for _, k := range kept {
						if !bad && k.changed() {
							t.Errorf("held offer seq %d changed under its hold: now seq %d, %v", k.seq, k.o.seq, maps.Collect(k.o.Properties.All()))
							bad = true
						}
					}
				}
				h.Release()
				released.Done()
			}
		}()
	}
	defer close(hold)

	for cycle := range cycles {
		visited.Add(readers)
		released.Add(readers)
		for range readers {
			hold <- struct{}{}
		}
		visited.Wait()
		var underHolds [2][]*stored
		for b := range underHolds {
			beat()
			underHolds[b] = current()
		}
		for range readers {
			release <- struct{}{}
		}
		released.Wait()
		// With no hold live, each upsert rewrites the offer its place's
		// upsert before last published: the ones the holds kept it from.
		for b := range underHolds {
			beat()
			reused := 0
			for i, st := range current() {
				if st == underHolds[b][i] {
					reused++
				}
			}
			if reused != nodes {
				t.Fatalf("cycle %d: %d of %d places rewrote their spare with no hold live", cycle, reused, nodes)
			}
		}
	}
	assertIndexConsistent(t, s)
}

// TestUpsertReusesSpare: once every place has been upserted twice, an upsert
// rewrites its place's spare and allocates nothing. Under a live hold, once
// every place's spare was retired under it, each upsert allocates its offer,
// exactly once; after Release none does. Offers SelectPointers handed out are
// never rewritten: the two upserts of each place after it allocate, and the
// pointers read as they did.
func TestUpsertReusesSpare(t *testing.T) {
	const nodes = 256
	s := NewService(nil)
	places, schema := holdFleet(t, s, nodes)
	var values [2][nodes][]constraint.Value
	for i := range nodes {
		values[0][i], values[1][i] = nodeValues(i, 0), nodeValues(i, 1)
	}
	n := 0
	// sweep upserts every place once, in AllocsPerRun's nodes calls, and
	// returns what each call after the first allocated.
	sweep := func() float64 {
		return testing.AllocsPerRun(nodes-1, func() {
			if !s.Upsert(places[n%nodes], time.Time{}, schema, values[n/nodes%2][n%nodes]) {
				t.Fatal("an upsert through a live place was dropped")
			}
			n++
		})
	}
	expect := func(what string, want float64) {
		t.Helper()
		if got := sweep(); got != want {
			t.Errorf("%s: an upsert allocates %v times, want %v", what, got, want)
		}
	}
	sweep()
	sweep()
	expect("steady state", 0)

	h := s.Hold()
	sweep()
	expect("every spare retired under a live hold", 1)
	h.Release()
	expect("after Release", 0)

	held, err := s.SelectPointers(Query{ServiceType: "NodeStatus"})
	if err != nil || len(held) != nodes {
		t.Fatalf("SelectPointers = %d offers, %v", len(held), err)
	}
	kept := make([]heldOffer, len(held))
	for i, o := range held {
		kept[i] = holdOffer(o)
	}
	expect("the first sweep after SelectPointers", 1)
	expect("the second sweep after SelectPointers", 1)
	expect("the third sweep after SelectPointers", 0)
	for _, k := range kept {
		if k.changed() {
			t.Fatalf("an offer SelectPointers returned was rewritten: seq %d is now %d", k.seq, k.o.seq)
		}
	}
}

package trading

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/orb"
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
	ref   orb.ObjectRef
	seq   int
	props map[string]constraint.Value
}

func holdOffer(o *Offer) heldOffer {
	return heldOffer{o: o, ref: o.Ref, seq: o.seq, props: maps.Collect(o.Properties.All())}
}

// changed reports whether the held offer no longer reads as it did.
func (h heldOffer) changed() bool {
	return h.o.Ref != h.ref || h.o.seq != h.seq || !reflect.DeepEqual(maps.Collect(h.o.Properties.All()), h.props)
}

// readerFailures collects what reader goroutines find wrong, for the test
// goroutine to report: a reader that called t.Errorf after a t.Fatalf there
// would fail a test that has already completed, and panic the binary.
type readerFailures struct {
	mu   sync.Mutex
	msgs []string
}

func (f *readerFailures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
}

// check fails the test with every failure the readers have reported so far.
func (f *readerFailures) check(t *testing.T) {
	t.Helper()
	f.mu.Lock()
	msgs := strings.Join(f.msgs, "\n")
	f.mu.Unlock()
	if msgs != "" {
		t.Fatal(msgs)
	}
}

// mallocs returns how many heap objects f allocates, as testing.AllocsPerRun
// counts them, over one run of f and with no warm-up run.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestHeldOffersOutliveUpserts: readers take a Hold, keep every offer a
// VisitMatchSet yields under it, and re-read them all while writers upsert each
// place twice, from value arrays they rewrite before every upsert: every held
// offer must read as it did at the visit until Release. By the second round
// under the holds every offer the index retired was retired under them, so
// each upsert of that round must store an offer the index never held before.
// The holds are taken and released between rounds, so the writers then run two
// rounds with no hold live, every upsert of which must rewrite an offer the
// index held before: the test checks both, or it would prove nothing. Under
// -race a rewrite of an offer a reader holds is a report too. The readers
// report to the test goroutine, and are stopped and joined however it ends.
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
					if !s.Upsert(places[i], schema, values) {
						t.Error("an upsert through a live place was dropped")
					}
				}
			}(w, round)
		}
		wg.Wait()
	}
	// stored records every place's offer, and counts those the index had held
	// before.
	known := map[*stored]bool{}
	stored := func() (old int) {
		for _, p := range places {
			if known[p.e.st] {
				old++
			}
			known[p.e.st] = true
		}
		return old
	}
	stored()

	hold, release := make(chan struct{}), make(chan struct{})
	var visited, released, running sync.WaitGroup
	var failures readerFailures
	for range readers {
		running.Add(1)
		go func() {
			defer running.Done()
			for range hold {
				h := s.Hold()
				var kept []heldOffer
				if err := visitOne(s, "", func(o *Offer) { kept = append(kept, holdOffer(o)) }); err != nil {
					failures.add("%v", err)
				}
				if len(kept) != nodes {
					failures.add("a visit yielded %d offers, want %d", len(kept), nodes)
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
							failures.add("held offer seq %d changed under its hold: now seq %d, %v", k.seq, k.o.seq, maps.Collect(k.o.Properties.All()))
							bad = true
						}
					}
				}
				h.Release()
				released.Done()
			}
		}()
	}
	// Closing release ends a reader's reading, and closing hold its loop.
	t.Cleanup(func() {
		close(hold)
		close(release)
		running.Wait()
	})

	for cycle := range cycles {
		visited.Add(readers)
		released.Add(readers)
		for range readers {
			hold <- struct{}{}
		}
		visited.Wait()
		failures.check(t)
		beat()
		stored()
		beat()
		if old := stored(); old != 0 {
			t.Fatalf("cycle %d: %d of %d upserts of the second round under live holds rewrote an offer", cycle, old, nodes)
		}
		for range readers {
			release <- struct{}{}
		}
		released.Wait()
		failures.check(t)
		for range 2 {
			beat()
			if old := stored(); old != nodes {
				t.Fatalf("cycle %d: %d of %d upserts with no hold live rewrote a retired offer; the rest allocated", cycle, old, nodes)
			}
		}
	}
	assertIndexConsistent(t, s)
}

// TestHeldOffersOutliveFreeListReuse: a retired offer is rewritten by
// whichever place writes next, so a hold must keep an offer from every
// place's upserts, not only its own place's. Readers keep the offers a
// VisitMatchSet yields under a Hold and re-read them while writers upsert
// places chosen at random, and release the hold after
// a few passes; every held offer's reference, seq and values must read as
// they did at the visit until Release. The readers also note, across their
// visits, every offer they see again under another reference: the test
// checks that some were, or it would prove nothing. Under -race a rewrite of
// an offer a reader holds is a report too. The readers report to the test
// goroutine, and are stopped and joined however it ends.
//
// The interleaving is handed off, not left to preemption, so the test means
// the same at -cpu 1: after each batch of upserts a writer pauses until each
// reader has finished a visit since its last pause, and a reader yields
// between its passes, so the writers' next batch runs under its hold and
// between its visits.
func TestHeldOffersOutliveFreeListReuse(t *testing.T) {
	const nodes, writers, readers, upserts, batch = 256, 4, 2, 3000, 300
	s := NewService(nil)
	places, schema := holdFleet(t, s, nodes)
	stop := make(chan struct{})
	var crossPlace atomic.Int64
	// visits counts each reader's finished visits; a reader that stops sets
	// its count to gone, and no writer waits for it from then on.
	const gone = math.MaxInt64
	var visits [readers]atomic.Int64
	var failures readerFailures
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	t.Cleanup(stopReaders)
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer visits[r].Store(gone)
			seen := map[*Offer]orb.ObjectRef{} // every offer visited, and its ref then
			for visit := 0; ; visit++ {
				select {
				case <-stop:
					if visit == 0 {
						failures.add("reader %d never ran", r)
					}
					return
				default:
				}
				h := s.Hold()
				var kept []heldOffer
				if err := visitOne(s, "", func(o *Offer) { kept = append(kept, holdOffer(o)) }); err != nil {
					failures.add("%v", err)
				}
				visits[r].Add(1)
				for pass := range 3 {
					runtime.Gosched()
					for _, k := range kept {
						if k.changed() {
							failures.add("reader %d pass %d: held offer seq %d of %v changed under its hold: now seq %d of %v",
								r, pass, k.seq, k.ref, k.o.seq, k.o.Ref)
							h.Release()
							return
						}
					}
				}
				h.Release()
				for _, k := range kept {
					if ref, ok := seen[k.o]; ok && ref != k.ref {
						crossPlace.Add(1)
					}
					seen[k.o] = k.ref
				}
			}
		}(r)
	}
	var writing sync.WaitGroup
	for w := range writers {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			values := nodeValues(0, 0)
			var last [readers]int64 // each reader's visits at this writer's last pause
			for round := range upserts {
				if round%batch == 0 {
					for r := range visits {
						for v := visits[r].Load(); v != gone && v <= last[r]; v = visits[r].Load() {
							runtime.Gosched()
						}
						last[r] = visits[r].Load()
					}
				}
				i := rng.Intn(nodes)
				copy(values, nodeValues(i, round))
				if !s.Upsert(places[i], schema, values) {
					t.Error("an upsert through a live place was dropped")
					return
				}
			}
		}(w)
	}
	writing.Wait()
	stopReaders()
	failures.check(t)
	if crossPlace.Load() == 0 {
		t.Fatal("no offer was seen again under another reference: no place rewrote an offer another place retired")
	}
	assertIndexConsistent(t, s)
}

// TestUpsertReusesSpare: an upsert rewrites an offer the index retired once no
// hold can reach it, and allocates only while one might. Counted over sweeps
// that upsert every place once: the first allocates twice, the offer of the
// first upsert, which finds no retired offer, and the one-slot ring of the
// free list, and the next allocates nothing. Under a live hold,
// once every retired offer was retired under it, a sweep allocates once an
// upsert; after Release none does. Select and All hand out copies and keep no
// hold: the two sweeps after them allocate nothing, rewrite every offer they
// copied, and the copies read as they did.
func TestUpsertReusesSpare(t *testing.T) {
	const nodes = 256
	s := NewService(nil)
	places, schema := holdFleet(t, s, nodes)
	var values [2][nodes][]constraint.Value
	for i := range places {
		values[0][i], values[1][i] = nodeValues(i, 0), nodeValues(i, 1)
	}
	n := 0
	sweep := func() {
		for i, p := range places {
			if !s.Upsert(p, schema, values[n%2][i]) {
				t.Fatal("an upsert through a live place was dropped")
			}
		}
		n++
	}
	expect := func(what string, want int) {
		t.Helper()
		if got := mallocs(sweep); got != uint64(want) {
			t.Errorf("%s: a sweep of %d places allocates %d times, want %d", what, nodes, got, want)
		}
	}
	expect("the first sweep", 2)
	expect("steady state", 0)

	h := s.Hold()
	sweep()
	expect("every offer retired under a live hold", nodes)
	h.Release()
	expect("after Release", 0)

	copied := map[*stored]int{} // the index's offers, and their seqs, as Select and All copy them
	for _, p := range places {
		copied[p.e.st] = p.e.st.seq
	}
	selected, err := s.Select(Query{})
	all := s.All("")
	if err != nil || len(selected) != nodes || len(all) != nodes {
		t.Fatalf("Select = %d offers, %v; All = %d offers", len(selected), err, len(all))
	}
	var kept []heldOffer
	for i := range selected {
		kept = append(kept, holdOffer(&selected[i]), holdOffer(&all[i]))
	}
	expect("the first sweep after Select and All", 0)
	expect("the second sweep after Select and All", 0)
	for st, seq := range copied {
		if st.seq == seq {
			t.Fatalf("two sweeps left the offer with seq %d as Select copied it: the test proves nothing", seq)
		}
	}
	for _, k := range kept {
		if k.changed() {
			t.Fatalf("a copy Select or All returned changed when the index rewrote its offer: seq %d is now %d", k.seq, k.o.seq)
		}
	}
}

// Package trading is the GRM's offer index, the part of the CORBA Trading
// Service the paper's GRM uses: exporters store *offers* — typed property
// lists plus an object reference — and the GRM queries them with constraint
// expressions.
//
// This is the role the paper assigns to the JacORB Trader: "The GRM uses the
// JacORB Trader to store the information it receives from the LRMs." Each LRM
// status update becomes a keyed upsert of the node's one offer; scheduling is
// a constraint query. The index lives in the GRM's process and nothing reaches
// it remotely.
//
// The index holds one service type, the node status offers of the LRMs, so
// it has no map of types: it is one snapshot behind an atomic.Pointer — one
// slot per offer, and one offer per exporting reference (DESIGN.md §16).
// Which offers it holds grows by appending and shrinks by copy-on-write: a
// reference's first offer goes into the slot just past the snapshot's end,
// published by a longer snapshot over the same slot array while the array has
// room, and a writer that removes an offer builds a fresh snapshot and swaps
// it in under the writer mutex, as the ORB's registries do. What a slot holds
// changes in place: a status update stores its ref's new offer into the slot
// the old one sat in, through the Place its first export returned, which
// names the slot. Readers take no locks — they load the snapshot and the
// slots — so they never contend with writers. Writers take the one mutex in
// turn; the GRM, the index's one writer, writes only inside its own critical
// section, so they never wait for each other there.
//
// An offer is written before it is published and is never rewritten while a
// hold that could reach it is live. A reader walks the index under a read
// hold (Hold), two atomic counters and no lock. Every offer is of one form:
// every write — a first export, an export by reference or in a batch, an
// update through a place — fills an offer with a copy of its values inline,
// and the offer it replaces joins the free list. A write rewrites the
// oldest offer on that list once every hold that could have loaded it has been
// released, and allocates a new one only while one might not have been
// (DESIGN.md §16).
package trading

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// Offer is one advertised service: the exporting object and its properties.
// The properties are a record no holder can write to, so copying an Offer
// copies everything a holder could change. Exporting one copies the record's
// values into the trader's offer, and Select and All return copies with
// records and values of their own, so nothing the trader stores is reachable
// from what they return.
type Offer struct {
	// Expires is the instant after which the offer is garbage; zero means
	// no expiry. LRM offers carry an expiry so that crashed nodes age out
	// of the trader (the staleness the Information Update Protocol bounds).
	// It and seq come first because they are what a scan reads of a match:
	// in a stored offer they share a cache line with the record header.
	Expires time.Time
	// seq is the service-assigned export sequence number, the order of the
	// offer index. Offers constructed by callers have seq 0; the export
	// assigns the real one.
	seq int
	// _ holds a stored offer to the byte map the scan was measured on
	// (DESIGN.md §16): the scan reads the first line of every offer, bytes
	// 0–63 — the record header, Expires and seq — and its values from byte
	// 136 on; Ref and Properties, bytes 80–135, only of a match.
	_ [16]byte

	Ref        orb.ObjectRef
	Properties *constraint.Record
}

// due reports whether the instant at — an offer's expiry, a snapshot's sweep
// bound — has been reached at now. A zero at is never reached, and a zero now
// (a service without a clock) reaches nothing.
func due(at, now time.Time) bool {
	return !at.IsZero() && !now.IsZero() && !at.After(now)
}

// earlier returns the earlier of two expiries, zero being never.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// expired reports whether the offer is past its expiry at now.
func (o *Offer) expired(now time.Time) bool { return due(o.Expires, now) }

// stored is an offer as the index holds it, in one object: the header of its
// property record inline and first, the Offer behind it, Properties pointing at
// rec, and the record's values right behind them. A scan that has loaded a
// slot has &st.rec without touching memory, so reaching a property is two
// dependent loads — header, value — not three; the Expires and seq of a match
// are on the line the header came in on, and the first value is 136 B on, not
// in another object wherever the allocator put it. The header and the values
// are copies of the exporter's. Like the Offer inside it, a stored is written
// before it is published and never rewritten while a hold that could reach it
// is live: it is rewritten, off the free list, only after its slot
// stopped pointing at it and every hold that could have loaded it was
// released. It has no field for that: its layout is what a scan reads.
type stored struct {
	rec constraint.Record
	Offer
	vals [inlineValues]constraint.Value
}

// inlineValues is how many property values an offer holds. The header and the
// Offer are 136 B and a value 32 B, so 19 of them make 744 B, in Go's 768-B
// size class; a 20th would tip the offer into the 896-B class. statusSchema's
// 19 values fit, and an export of more is a bug in the caller, and panics.
const inlineValues = 19

// noProperties stands in for a nil record.
var noProperties = constraint.NewSchema().Record(nil)

// Seq returns the offer's export sequence number: unique within a Service and
// ascending in the order Select and All return; zero until exported.
func (o *Offer) Seq() int { return o.seq }

// Query selects offers.
type Query struct {
	// ServiceType is ignored: the index holds one type. It is kept only
	// because benchmark/ sets it.
	ServiceType string
	// Constraint filters offers; empty selects all.
	Constraint string
}

// compileCache memoizes constraint compilation across every trader instance.
// Query sources repeat heavily — the GRM renders the same constraint text for
// every scheduling pass over a given application spec — so a query hits the
// cache on all but the first sight of a source.
var compileCache = constraint.NewCache(0)

// snapshot is the index's published state. Which offers it has slots for is
// immutable — a writer that removes one builds a fresh snapshot, and one that
// adds one publishes a longer snapshot — but what a slot holds is not: an
// upsert stores a ref's new offer into its old one's slot. A reader loads each
// slot once and so sees, for each ref, the old offer or the new one; slot order
// means nothing.
//
// A rebuild allocates its slot array with room to spare, and every snapshot
// published over one array shares its sweepAt. A first export stores into the
// slot just past a snapshot's end — nil until then, and indexed by no reader of
// that snapshot — before it publishes the longer one.
type snapshot struct {
	slots []atomic.Pointer[stored]
	// sweepAt is a lower bound on the expiry of every offer ever stored into
	// this snapshot's slot array (zero: none expires), exact when a rebuild
	// made the array and never written again: a slot store or an append is
	// allowed only if it keeps the bound. Until now reaches it nothing here has
	// expired, so a writer need not look for something to compact, nor a
	// reader for something to skip.
	sweepAt time.Time
}

// slotHeadroom is how many times its offers a rebuilt slot array holds, so
// that the first exports that fill it append instead of rebuilding: n of them
// copy O(n) slots in all.
const slotHeadroom = 2

// entry is one exporter's offer: its current offer and the slot it sits in.
// The index has at most one entry per exporting reference. An upsert replaces
// st, which joins the free list, and keeps the entry; a withdrawal, or an
// expiry sweep, removes the entry for good, leaves its offer to the collector
// and sets slot to -1. Its fields are guarded by Service.mu.
type entry struct {
	st   *stored
	slot int
}

// Place is an exporter's handle on its offer's entry, which Export returns and
// Upsert and Withdraw take: the slot without a probe of byRef. It
// stays valid across upserts until its offer is withdrawn or swept as expired;
// then it is dead, and an export by reference gives a new place. The zero
// Place is no place.
type Place struct{ e *entry }

// retired is an offer an upsert replaced, and the epoch read just after the
// store that unpublished it.
type retired struct {
	st *stored
	at uint64
}

// Service is the in-memory trader. Safe for concurrent use.
//
// Offers are indexed two ways: a snapshot holding one slot per offer (the
// lock-free read path), and entries, one per exporting reference, which places
// point at (the write path). Every offer carries its export sequence number,
// which is unique, so a consumer that wants export order sorts by it (scan)
// and one that brings its own order never pays for it (DESIGN.md §16).
type Service struct {
	// version counts index mutations. Readers that cache query results
	// (the GRM's batch matcher) revalidate against it: an unchanged version
	// means the snapshot they cached is still the live one.
	version atomic.Uint64

	// epoch and holds are the read holds (Hold): holds[p] counts the live
	// holds taken at an epoch of parity p. An offer retired at epoch t may be
	// rewritten once the epoch is t+2 or more (graceOver).
	epoch atomic.Uint64
	holds [2]atomic.Int64

	now func() time.Time

	// mu serializes snapshot rebuilds and slot stores, and guards seq, byRef,
	// entries and the free list. Readers never take it: they load snap and the
	// slots.
	//
	//lint:guards snap
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
	// seq is the export sequence, drawn under mu.
	seq int
	// byRef and entries index the snapshot's offers by exporter: byRef finds a
	// reference's one entry, and entries[i] is the entry whose offer sits in
	// slot i. Mutated in place under mu; never read without it.
	byRef   map[orb.ObjectRef]*entry
	entries []*entry
	// free is a ring of the offers upserts replaced, n of them from
	// head on, oldest first, each with the epoch read after the store that
	// unpublished it. They are appended under mu in store order, so their
	// epochs never decrease and only the oldest need be checked (reuse). It
	// holds at most len(entries): past that, a retired offer is left to the
	// collector.
	free    []retired
	head, n int
}

// NewService returns an empty trader. The now function drives offer expiry;
// pass the clock's Now (or nil for no expiry checks).
func NewService(now func() time.Time) *Service {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	s := &Service{now: now, byRef: make(map[orb.ObjectRef]*entry)}
	s.snap.Store(&snapshot{})
	return s
}

// Version returns the index mutation counter, which advances by one on every
// write. Cached query results are valid only while the version is unchanged
// (and no cached offer has hit its expiry).
func (s *Service) Version() uint64 { return s.version.Load() }

// Hold is a read hold on a Service's offers: no offer the holder loads from
// the index while the hold is live is rewritten before Release. Taking and
// releasing one is a few atomic operations, no lock and no allocation, and a
// writer never waits for one: while a hold that could reach the oldest
// retired offer is live, a write allocates a new offer instead
// (DESIGN.md §16). The zero Hold holds nothing, and must not be released.
type Hold struct{ count *atomic.Int64 }

// Hold takes a read hold. It counts itself under the epoch's parity and
// re-reads the epoch: if a writer moved it meanwhile, the count may have come
// too late to stop the move past it, and it counts again under the new one.
func (s *Service) Hold() Hold {
	for {
		e := s.epoch.Load()
		n := &s.holds[e&1]
		n.Add(1)
		if s.epoch.Load() == e {
			return Hold{n}
		}
		n.Add(-1)
	}
}

// Release ends the hold. The offers it kept may be rewritten from here on.
func (h Hold) Release() { h.count.Add(-1) }

// graceOver reports whether an offer retired at epoch t may be rewritten: the
// epoch is t+2 or more. It moves the epoch on itself, from e to e+1, while it
// is short of that and no hold of parity (e+1)&1 is live, and never waits.
//
// A hold counted at epoch h can reach the offer only through a snapshot it
// loaded before the store that retired it — the live snapshot holds the new
// offer from then on — so h ≤ t; and while the hold is live the epoch
// cannot move from h+1 to h+2, whose parity is the hold's. So the epoch
// reaches t+2 only after every hold that could reach the offer was released.
func (s *Service) graceOver(t uint64) bool {
	e := s.epoch.Load()
	for e < t+2 && s.holds[(e+1)&1].Load() == 0 {
		s.epoch.CompareAndSwap(e, e+1)
		e = s.epoch.Load()
	}
	return e >= t+2
}

// Export upserts the offer of ref — the index holds one offer per exporting
// reference — with the given expiry and properties, values[i] being the
// schema's i-th, and returns its place, through which the exporter's later
// upserts and its withdrawal go. It copies values into the offer, as Upsert
// does, so the caller keeps the array and may reuse it once Export returns.
// More than inlineValues values is a bug in the caller, and panics.
//
//lint:hotpath alloc=0 locks=1 block=0
func (s *Service) Export(ref orb.ObjectRef, expires time.Time, schema *constraint.Schema, values []constraint.Value) Place {
	e, _ := s.upsert(nil, ref, expires, schema, values)
	s.version.Add(1)
	return Place{e}
}

// ExportKeyed is Export of o: its reference and expiry, and a copy of its
// properties' values, so o's record stays the caller's. Its error is always
// nil. The GRM exports through Export; ExportKeyed is kept for benchmark/ and
// for tests that build offers whole.
//
//lint:hotpath alloc=0 locks=1 block=0
func (s *Service) ExportKeyed(o Offer) (Place, error) {
	schema, values := parts(o.Properties)
	return s.Export(o.Ref, o.Expires, schema, values), nil
}

// parts is a record's schema and values, a nil record's none.
func parts(r *constraint.Record) (*constraint.Schema, []constraint.Value) {
	if r == nil {
		r = noProperties
	}
	return r.Parts()
}

// Upsert makes the offer at place p one of p's reference with the given
// expiry and properties, values[i] being the schema's i-th, as Export would
// for p's reference, without finding the reference: it locks the index and
// stores into p's slot. It copies values into the offer, which holds them
// beside its record header, so the caller keeps the array and may reuse it
// once Upsert returns. Upsert reports false, and changes nothing, when p is
// dead or the zero Place: it never re-adds an offer.
//
//lint:hotpath alloc=0 locks=1 block=0
func (s *Service) Upsert(p Place, expires time.Time, schema *constraint.Schema, values []constraint.Value) bool {
	if p.e == nil {
		return false
	}
	if e, _ := s.upsert(p.e, orb.ObjectRef{}, expires, schema, values); e == nil {
		return false
	}
	s.version.Add(1)
	return true
}

// fill writes st as an offer of the given expiry and values, copied inline.
func (st *stored) fill(expires time.Time, schema *constraint.Schema, values []constraint.Value) {
	n := copy(st.vals[:], values)
	clear(st.vals[n:])
	st.rec = schema.Header(st.vals[:n])
	st.Expires, st.Properties = expires, &st.rec
}

// reuse takes the offer a write is to fill: the oldest offer on the free list
// once no hold can reach it, and a new one while one might. The caller holds
// s.mu.
func (s *Service) reuse() *stored {
	if s.n == 0 || !s.graceOver(s.free[s.head].at) {
		return newOffer()
	}
	st := s.free[s.head].st
	s.free[s.head] = retired{}
	if s.head++; s.head == len(s.free) {
		s.head = 0
	}
	s.n--
	return st
}

// newOffer is the offer a write fills when there is no retired offer it may
// rewrite: the free list is empty, as while the fleet registers, or a live
// hold could still reach the oldest offer on it.
//
//lint:coldpath no retired offer may be rewritten yet
func newOffer() *stored { return new(stored) }

// retire appends st, which the caller's store has just unpublished, to the
// free list, at the epoch read after that store. With as many retired offers
// as there are entries st is left to the collector instead. The caller holds
// s.mu.
func (s *Service) retire(st *stored) {
	if s.n >= len(s.entries) {
		return
	}
	if s.n == len(s.free) {
		s.growFree()
	}
	i := s.head + s.n
	if i >= len(s.free) {
		i -= len(s.free)
	}
	s.free[i] = retired{st, s.epoch.Load()}
	s.n++
}

// growFree doubles the free list's ring, oldest offer first.
//
//lint:coldpath the list outgrows its ring only while a hold keeps its offers from reuse
func (s *Service) growFree() {
	next := make([]retired, max(1, 2*len(s.free)))
	for i := range s.n {
		next[i] = s.free[(s.head+i)%len(s.free)]
	}
	s.free, s.head = next, 0
}

// upsert is the one write section of Export, Upsert and ExportBatch. With e
// nil it writes the offer of ref's entry, adding the entry on the reference's
// first export; otherwise e's, unless e is dead. It fills an offer reuse takes
// with the expiry and the values and returns the entry and the offer's seq, or
// a nil entry, storing nothing, when e is dead. The offer takes the reference
// of the entry's current one, and ref on a first export. The caller advances
// the version.
//
// When nothing in the index can have expired (now is short of sweepAt) and
// the offer's expiry keeps sweepAt a lower bound, upsert stores it into the
// entry's slot, or appends a reference's first offer past the snapshot's end;
// otherwise — an expiry to compact, a lower bound — it rebuilds the snapshot.
// The seq is drawn under the mutex, so a reference's offers are numbered in
// the order they replace each other. The offer it replaces, in no slot any
// more, joins the free list, retired at the epoch read after the store. All of
// it is one section under the mutex.
func (s *Service) upsert(e *entry, ref orb.ObjectRef, expires time.Time, schema *constraint.Schema, values []constraint.Value) (*entry, int) {
	if len(values) > inlineValues {
		panic("trading: an offer of more than inlineValues properties")
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e == nil:
		if e = s.byRef[ref]; e == nil {
			e = s.adopt(ref)
		}
	case e.slot < 0:
		return nil, 0
	}
	st := s.reuse()
	st.fill(expires, schema, values)
	old := e.st
	if old != nil {
		ref = old.Ref
	}
	st.Ref = ref
	s.seq++
	st.seq = s.seq
	e.st = st
	cur := s.snap.Load()
	switch {
	case due(cur.sweepAt, now) || !earlier(cur.sweepAt, st.Expires).Equal(cur.sweepAt):
		s.snap.Store(s.rebuilt(cur, now, nil))
	case e.slot >= 0:
		cur.slots[e.slot].Store(st)
	default:
		s.snap.Store(s.appended(cur, now, e))
	}
	if old != nil && e.slot >= 0 {
		s.retire(old)
	}
	return e, st.seq
}

// ExportBatch is ExportKeyed in bulk: it upserts many offers, in order, and
// returns their export sequence numbers; its error is always nil. A later
// offer for a ref replaces an earlier one, in the index or in the batch. The
// whole batch is one version step.
func (s *Service) ExportBatch(offers []Offer) ([]int, error) {
	seqs := make([]int, len(offers))
	for i, o := range offers {
		schema, values := parts(o.Properties)
		_, seqs[i] = s.upsert(nil, o.Ref, o.Expires, schema, values)
	}
	s.version.Add(1)
	return seqs, nil
}

// adopt adds an entry for ref, the last one, with no slot until its caller,
// which holds s.mu and sets the entry's offer, appends it or rebuilds the
// snapshot.
//
//lint:coldpath a reference's first export
func (s *Service) adopt(ref orb.ObjectRef) *entry {
	e := &entry{slot: -1}
	s.byRef[ref] = e
	s.entries = append(s.entries, e)
	return e
}

// appended publishes the offer of e, the entry adopt has just added, without a
// copy while cur's slot array has room: it stores the offer into the slot just
// past cur's end — where a rebuild would put it, e being the last entry — and
// returns a longer snapshot over the same array, with cur's sweepAt, which the
// caller, holding s.mu, must store. No reader of cur indexes that slot, and no
// snapshot before reached it: an array's snapshots only grow, as a removal
// rebuilds. With the array full it returns the rebuild. The caller has checked
// that no sweep is due and that the offer keeps sweepAt a lower bound.
//
//lint:coldpath a reference's first export
func (s *Service) appended(cur *snapshot, now time.Time, e *entry) *snapshot {
	n := len(cur.slots)
	if n == cap(cur.slots) {
		return s.rebuilt(cur, now, nil)
	}
	e.slot = n
	next := &snapshot{slots: cur.slots[:n+1], sweepAt: cur.sweepAt}
	next.slots[n].Store(e.st)
	return next
}

// rebuilt is the copy step of the copy-on-write writers: it returns a fresh
// snapshot, over a fresh slot array with slotHeadroom to grow into, holding the
// offers of the entries — without drop's (nil: none) and, when cur's sweep is
// due, without those past their expiry — its sweepAt exact. It removes the
// dropped entries and moves every survivor's slot, so the caller, which holds
// s.mu, must store the result. A removal must rebuild: moving an offer into a
// freed slot in place could show a reader its ref twice.
//
//lint:coldpath copy-on-write rebuild: the writer slow path
func (s *Service) rebuilt(cur *snapshot, now time.Time, drop *entry) *snapshot {
	sweep := due(cur.sweepAt, now)
	next := &snapshot{slots: make([]atomic.Pointer[stored], len(s.entries), slotHeadroom*len(s.entries))}
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e == drop || sweep && e.st.expired(now) {
			delete(s.byRef, e.st.Ref)
			e.slot = -1
			continue
		}
		e.slot = len(kept)
		next.slots[e.slot].Store(e.st)
		next.sweepAt = earlier(next.sweepAt, e.st.Expires)
		kept = append(kept, e)
	}
	clear(s.entries[len(kept):])
	s.entries = kept
	next.slots = next.slots[:len(kept)]
	return next
}

// Withdraw removes the offer at place p — a rebuild of the snapshot — and
// reports whether there was one: false for a dead or zero place.
func (s *Service) Withdraw(p Place) bool {
	e := p.e
	if e == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.slot < 0 {
		return false
	}
	s.snap.Store(s.rebuilt(s.snap.Load(), s.now(), e))
	s.version.Add(1)
	return true
}

// Count returns the number of live offers: the slot count while the sweep
// bound is ahead of now, and a walk of the snapshot only once it is not.
func (s *Service) Count() int {
	h := s.Hold()
	defer h.Release()
	now := s.now()
	snap := s.snap.Load()
	n := len(snap.slots)
	if due(snap.sweepAt, now) {
		for j := range snap.slots {
			if snap.slots[j].Load().expired(now) {
				n--
			}
		}
	}
	return n
}

// All returns every live offer in export-sequence order — a deterministic
// snapshot for failover checks and observability, bypassing constraint
// evaluation. The offers are the caller's, as Select's are. Its parameter is
// ignored: the index holds one type. It is kept only because benchmark/
// passes one.
func (s *Service) All(string) []Offer {
	h := s.Hold()
	defer h.Release()
	return owned(s.scan(nil, s.now()))
}

// owned copies offers out of the index, property records and values included,
// in one allocation of each: the copies share nothing with the index. The
// caller holds the hold its walk loaded the offers under, so none of them is
// rewritten while they are copied.
func owned(offers []*Offer) []Offer {
	n := 0
	for _, o := range offers {
		n += o.Properties.Len()
	}
	out := make([]Offer, len(offers))
	recs := make([]constraint.Record, len(offers))
	vals := make([]constraint.Value, n)
	for i, o := range offers {
		schema, v := o.Properties.Parts()
		k := copy(vals, v)
		recs[i] = schema.Header(vals[:k:k])
		vals = vals[k:]
		out[i] = *o
		out[i].Properties = &recs[i]
	}
	return out
}

// visitSet is the one walk of the index every query is built on: it calls fn
// once for each live offer that satisfies at least one of cons,
// with bit c of met set when the offer satisfies cons[c] (nil: every offer
// does), in no order a caller may rely on. A constraint whose bit is in skip
// matches nothing, and an offer whose constraint evaluation errors does not
// match.
//
// It takes the snapshot a block at a time, in three stages. Reaching an offer's
// values is a chain of dependent cache misses — the slot, the record header at
// the front of what it points to, the record's value array — and a fleet does
// not fit in cache; finishing one offer before touching the next pays them in
// turn, while each stage's loop over a block issues loads that do not depend
// on each other, so they overlap. Each block's records are filtered against
// every constraint in turn, the first filter having brought them into cache
// for the rest; with one constraint its filter's matches are the yield, met 1,
// with no copy of the live list and no mask to gather.
func (s *Service) visitSet(cons []*constraint.Expr, skip uint64, now time.Time, fn func(o *Offer, met uint64)) {
	if skip == 1<<len(cons)-1 {
		return
	}
	var (
		offs [constraint.BlockSize]*stored
		recs [constraint.BlockSize]*constraint.Record
		live [constraint.BlockSize]uint8
		sel  [constraint.BlockSize]uint8
		met  [constraint.BlockSize]uint64
	)
	snap := s.snap.Load()
	sweep := due(snap.sweepAt, now)
	for slots := snap.slots; len(slots) > 0; {
		block := slots[:min(len(slots), constraint.BlockSize)]
		slots = slots[len(block):]
		// One: each slot, loaded once — and the offer behind it only once the
		// sweep bound has passed, when it may have expired.
		n := 0
		for j := range block {
			st := block[j].Load()
			if sweep && st.expired(now) {
				continue
			}
			offs[j], recs[j] = st, &st.rec
			live[n] = uint8(j)
			n++
		}
		// Two: the constraints, a term across the block at a time.
		if len(cons) == 1 {
			matched := live[:n]
			if cons[0] != nil {
				matched = cons[0].Filter(recs[:len(block)], matched)
			}
			for _, j := range matched {
				fn(&offs[j].Offer, 1)
			}
			continue
		}
		for c, expr := range cons {
			if skip&(1<<c) != 0 {
				continue
			}
			matched := live[:n]
			if expr != nil {
				copy(sel[:n], live[:n])
				matched = expr.Filter(recs[:len(block)], sel[:n])
			}
			for _, j := range matched {
				met[j] |= 1 << c
			}
		}
		// Three: the matches.
		for _, j := range live[:n] {
			if met[j] != 0 {
				fn(&offs[j].Offer, met[j])
				met[j] = 0
			}
		}
	}
}

// scan returns what visitSet yields for cons alone, in ascending seq: global
// export order.
func (s *Service) scan(cons *constraint.Expr, now time.Time) []*Offer {
	matched := make([]*Offer, 0, len(s.snap.Load().slots))
	one := [1]*constraint.Expr{cons}
	s.visitSet(one[:], 0, now, func(o *Offer, _ uint64) { //lint:alloc visitSet only calls it: it stays on the stack
		matched = append(matched, o) //lint:alloc presized: grows only if the index gained offers since the count
	})
	slices.SortFunc(matched, func(a, b *Offer) int { return cmp.Compare(a.seq, b.seq) })
	return matched
}

// compile returns the cached compilation of a query's constraint source, what
// naming the source in an error; the empty source compiles to nil.
func compile(what, src string) (*constraint.Expr, error) {
	if src == "" {
		return nil, nil
	}
	expr, err := compileCache.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("trading: %s: %w", what, err) //lint:alloc error slow path
	}
	return expr, nil
}

// MaxVisitSet is the most constraints one VisitMatchSet takes: one bit each of
// the mask it reports.
const MaxVisitSet = 64

// VisitMatchSet calls fn once for every live offer that satisfies at least one
// of up to MaxVisitSet constraints ("" for all), with bit c of met set when the offer satisfies cons[c], in one walk
// straight off the snapshot: nothing is collected, sorted or copied.
// Each offer arrives once, in no order a caller may rely on — sort by Seq, or
// use Select, which copies, for export order. Against concurrent updates a
// walk sees, for each exporter, its offer from before or from after, and met
// describes the offer fn is given. The offers are the index's own: read-only,
// and never rewritten while a hold that could reach them is live. The walk
// runs under a hold of its own, so fn may read them; a caller that keeps them
// past the walk takes a Hold before it and keeps it for as long as it reads
// them. A constraint that does not compile matches nothing and has its bit set
// in bad. More than MaxVisitSet constraints is a bug in the caller, and
// panics.
//
//lint:hotpath alloc=0 locks=2 block=0
func (s *Service) VisitMatchSet(cons []string, fn func(o *Offer, met uint64)) (bad uint64) {
	if len(cons) > MaxVisitSet {
		panic("trading: VisitMatchSet over more than MaxVisitSet constraints")
	}
	var exprs [MaxVisitSet]*constraint.Expr
	for c, src := range cons {
		expr, err := compile("constraint", src)
		if err != nil {
			bad |= 1 << c
		}
		exprs[c] = expr
	}
	h := s.Hold()
	defer h.Release()
	s.visitSet(exprs[:len(cons)], bad, s.now(), fn)
	return bad
}

// Select evaluates a query, returning the matching offers in export order;
// q.ServiceType is ignored. The
// offers are the caller's: the walk copies them out of the index, property
// records and values included, before it releases its hold, so no later write
// to the index changes them and the caller may keep and change them as it
// likes. A reader that wants no copy (the GRM's matcher) uses VisitMatchSet
// under a Hold, and skips the sort too.
//
// Offers whose constraint evaluation errors (for example, a missing
// property) simply do not match — mirroring the CORBA trader, which treats
// such offers as failing the constraint rather than failing the query.
//
// The only locks on this path are the constraint compile-cache's (a miss
// compiles once per distinct source); the offer index itself is read with
// zero locks.
//
//lint:hotpath alloc=5 locks=2 block=0
func (s *Service) Select(q Query) ([]Offer, error) {
	cons, err := compile("constraint", q.Constraint)
	if err != nil {
		return nil, err
	}
	h := s.Hold()
	defer h.Release()
	return owned(s.scan(cons, s.now())), nil
}

// SelectShared is Select. It is kept only because benchmark/, which a change
// claiming a gain may not edit, calls it; nothing else should.
//
//lint:hotpath alloc=5 locks=2 block=0
func (s *Service) SelectShared(q Query) ([]Offer, error) { return s.Select(q) }

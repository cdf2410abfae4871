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
// The offer index is sharded (DESIGN.md §16): each service type owns
// shardsPerType shards keyed by the exporting object reference, and each shard
// publishes a snapshot behind an atomic.Pointer — one slot per offer, and one
// offer per exporting reference. Which offers a shard holds grows by appending
// and shrinks by copy-on-write: a reference's first offer goes into the slot
// just past the snapshot's end, published by a longer snapshot over the same
// slot array while the array has room, and a writer that removes an offer
// builds a fresh snapshot and swaps it in under the shard mutex, as the ORB's
// registries do. What a slot holds changes in place: a status update stores
// its ref's new offer into the slot the old one sat in, through the Place its
// first export returned, which names the shard and the slot. Readers take no
// locks — they load the snapshots and the slots — so they never contend with
// writers. A writer takes its shard's mutex and no other, so writers on
// different shards never contend with each other either.
//
// An offer is written before it is published and is never rewritten while a
// hold that could reach it is live. A reader walks the index under a read
// hold (Hold), two atomic counters and no lock. Every keyed write — a first
// export, an export by reference, an update through a place — fills an offer
// with its values inline, and the offer it replaces joins its shard's free
// list. A write rewrites the oldest offer on that list once every hold that
// could have loaded it has been released, and allocates a new one only while
// one might not have been (DESIGN.md §16).
package trading

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// shardsPerType is the number of copy-on-write shards per service type.
// Offers are assigned to shards by a hash of their exporting reference, so a
// write that changes which offers a shard holds rebuilds 1/shardsPerType of
// the type's index instead of all of it, and updates for different nodes
// proceed in parallel.
const shardsPerType = 64

// Offer is one advertised service: a type name, the exporting object, and
// its properties. The properties are a record no holder can write to, so
// copying an Offer copies everything a holder could change. Exporting one
// copies the record's values into the trader's offer (ExportBatch shares
// them), and Select and All return copies with records and values of their
// own, so nothing the trader stores is reachable from what they return.
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

	ServiceType string
	Ref         orb.ObjectRef
	Properties  *constraint.Record
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

// stored is an offer as the index holds it: the header of its property record
// inline and first, the Offer behind it, Properties pointing at rec. A scan
// that has loaded a slot has &st.rec without touching memory, so reaching a
// property is two dependent loads — header, value — not three, and the Expires
// and seq of a match are on the line the header came in on. The header is a
// copy. The value array is the offer's own, right behind it, in one a keyed
// write stored (updated), a copy apart in one whose values do not fit inline,
// and the exporter's, shared, in one ExportBatch stored. Like the Offer inside
// it, a stored is written before it is published and never rewritten while a
// hold that could reach it is live: an updated one is rewritten, off its
// shard's free list, only after its slot stopped pointing at it and every hold
// that could have loaded it was released. It has no field for that: its layout
// is what a scan reads.
type stored struct {
	rec constraint.Record
	Offer
}

// inlineValues is how many property values an updated offer holds in its own
// allocation. A stored is 136 B and a value 32 B, so 19 of them make 744 B, in
// Go's 768-B size class; a 20th would tip the offer into the 896-B class.
// statusSchema's 19 values fit.
const inlineValues = 19

// updated is an offer a keyed write stored: the stored offer, its record header
// inline, and the record's values right behind them, in one object. A scan
// that reaches it finds the header and the first value 136 B apart, not in
// two objects wherever the allocator put them.
type updated struct {
	stored
	vals [inlineValues]constraint.Value
}

// noProperties stands in for a nil record, so that every stored rec is valid.
var noProperties = constraint.NewSchema().Record(nil)

// newStored is the offer ExportBatch stores for o, sharing o's values.
func newStored(o Offer) *stored {
	st := &stored{rec: *noProperties, Offer: o}
	if o.Properties != nil {
		st.rec = *o.Properties
	}
	st.Properties = &st.rec
	return st
}

// Seq returns the offer's export sequence number: unique within a Service and
// ascending in the order Select and All return; zero until exported.
func (o *Offer) Seq() int { return o.seq }

// Query selects offers of a service type.
type Query struct {
	ServiceType string
	// Constraint filters offers; empty selects all of the type.
	Constraint string
}

// compileCache memoizes constraint compilation across every trader instance.
// Query sources repeat heavily — the GRM renders the same constraint text for
// every scheduling pass over a given application spec — so a query hits the
// cache on all but the first sight of a source.
var compileCache = constraint.NewCache(0)

// shardSnap is one shard's published state. Which offers it has slots for is
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
type shardSnap struct {
	slots []atomic.Pointer[stored]
	// sweepAt is a lower bound on the expiry of every offer ever stored into
	// this snapshot's slot array (zero: none expires), exact when a rebuild
	// made the array and never written again: a slot store or an append is
	// allowed only if it keeps the bound. Until now reaches it nothing here has
	// expired, so a writer need not look for something to compact, nor a
	// reader for something to skip.
	sweepAt time.Time
}

// slotHeadroom is how many times its offers a rebuilt shard's slot array
// holds, so that the first exports that fill it append instead of rebuilding:
// n of them into one shard copy O(n) slots in all.
const slotHeadroom = 2

// emptySnap is the shared snapshot of an offer-less shard; it is never
// mutated, so every empty shard can publish the same pointer.
var emptySnap = &shardSnap{}

// entry is one exporter's offer in a shard: its current offer and the slot it
// sits in. A shard has at most one entry per exporting reference. An upsert
// replaces st and keeps the entry; a withdrawal, or an expiry sweep, removes
// the entry for good and sets slot to -1. Its fields are guarded by sh.mu.
//
// own is st when a keyed write filled it inline (nil otherwise): the offer
// that joins the shard's free list when the entry's next upsert replaces it.
type entry struct {
	sh   *shard
	st   *stored
	slot int
	own  *updated
}

// Place is an exporter's handle on its offer's entry, which Export returns and
// Upsert and Withdraw take: the slot without a type-map lookup, a hash or a
// probe of byRef. It stays valid across upserts until its offer is
// withdrawn or swept as expired; then it is dead, and an export by reference
// gives a new place. The zero Place is no place.
type Place struct{ e *entry }

// shard is one slice of a service type's offer index.
type shard struct {
	// mu serializes snapshot rebuilds and slot stores, and guards byRef and
	// entries. Readers never take it: they load snap and the slots.
	//
	//lint:guards snap
	mu   sync.Mutex
	snap atomic.Pointer[shardSnap]
	// byRef and entries index the snapshot's offers by exporter: byRef finds a
	// reference's one entry, and entries[i] is the entry whose offer sits in
	// slot i. Mutated in place under mu; never read without it.
	byRef   map[orb.ObjectRef]*entry
	entries []*entry
	// free is a ring of the inline offers upserts replaced, n of them from
	// head on, oldest first, each with the epoch read after the store that
	// unpublished it. They are appended under mu in store order, so their
	// epochs never decrease and only the oldest need be checked (reuse). It
	// holds at most len(entries): past that, a retired offer is left to the
	// collector.
	free    []retired
	head, n int
}

// retired is an inline offer an upsert replaced, and the epoch read just after
// the store that unpublished it.
type retired struct {
	u  *updated
	at uint64
}

// typeShards is one service type's shard set. The array is fixed at
// construction; only the snapshots inside the shards change.
type typeShards struct {
	shards [shardsPerType]shard
}

// refShard maps an exporting reference to its shard index within a type:
// FNV-1a over endpoint and key, written out so that it converts no string.
func refShard(ref orb.ObjectRef) int {
	h := uint32(2166136261)
	for _, s := range [...]string{ref.Endpoint.Net, ref.Endpoint.Addr, ref.Key} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
	}
	return int(h % shardsPerType)
}

// Service is the in-memory trader. Safe for concurrent use.
//
// Offers are indexed two ways: per-(type, ref-hash) shard snapshots holding
// one slot per offer (the lock-free read path), and per-shard entries, one per
// exporting reference, which places point at (the write path). Every offer
// carries its export sequence number, which is unique, so a consumer that
// wants export order sorts by it (scan) and one that brings its own order
// never pays for it (DESIGN.md §16).
type Service struct {
	// seq is the global export sequence; atomic so concurrent exports on
	// different shards never serialize on it.
	seq atomic.Int64
	// version counts index mutations. Readers that cache query results
	// (the GRM's batch matcher) revalidate against it: an unchanged version
	// means the snapshot they cached is still the live one.
	version atomic.Uint64

	// epoch and holds are the read holds (Hold): holds[p] counts the live
	// holds taken at an epoch of parity p. An offer retired at epoch t may be
	// rewritten once the epoch is t+2 or more (graceOver).
	epoch atomic.Uint64
	holds [2]atomic.Int64

	// mu serializes growth of the types map, which is copy-on-write: writers
	// copy the map, add the new type's shard set and swap; readers load it
	// lock-free. Nothing else takes it.
	//
	//lint:guards types
	mu    sync.Mutex
	types atomic.Pointer[map[string]*typeShards]

	now func() time.Time
}

// NewService returns an empty trader. The now function drives offer expiry;
// pass the clock's Now (or nil for no expiry checks).
func NewService(now func() time.Time) *Service {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	s := &Service{now: now}
	types := make(map[string]*typeShards)
	s.types.Store(&types)
	return s
}

// Version returns the index mutation counter, which advances by one on every
// write. Cached query results are valid only while the version is unchanged
// (and no cached offer has hit its expiry).
func (s *Service) Version() uint64 { return s.version.Load() }

// Hold is a read hold on a Service's offers: no offer the holder loads from
// the index while the hold is live is rewritten before Release. Taking and
// releasing one is a few atomic operations, no lock and no allocation, and a
// writer never waits for one: while a hold that could reach its shard's
// oldest retired offer is live, a write allocates a new offer instead
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
// loaded before the store that retired it — the shard's snapshot holds the
// new offer from then on — so h ≤ t; and while the hold is live the epoch
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

// typeIndex returns the shard set for a service type, or nil when the type
// has never been exported. Lock-free.
func (s *Service) typeIndex(serviceType string) *typeShards {
	return (*s.types.Load())[serviceType]
}

// shardFor returns the shard an offer of the given type and exporter lives in.
func (s *Service) shardFor(serviceType string, ref orb.ObjectRef) *shard {
	ts := s.typeIndex(serviceType)
	if ts == nil {
		ts = s.addType(serviceType)
	}
	return &ts.shards[refShard(ref)]
}

// addType creates the shard set for a service type (one copy-on-write swap of
// the types map) on first export of the type.
//
//lint:coldpath first export of a service type
func (s *Service) addType(serviceType string) *typeShards {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.types.Load()
	if ts := (*cur)[serviceType]; ts != nil {
		return ts
	}
	ts := &typeShards{}
	for i := range ts.shards {
		ts.shards[i].snap.Store(emptySnap)
		ts.shards[i].byRef = make(map[orb.ObjectRef]*entry)
	}
	next := make(map[string]*typeShards, len(*cur)+1)
	for k, v := range *cur {
		next[k] = v
	}
	next[serviceType] = ts
	s.types.Store(&next)
	return ts
}

// Export upserts the offer of (serviceType, ref) — a shard holds one offer per
// exporting reference — with the given expiry and properties, values[i] being
// the schema's i-th, and returns its place, through which the exporter's later
// upserts and its withdrawal go. It copies values into the offer, as Upsert
// does, so the caller keeps the array and may reuse it once Export returns.
//
//lint:hotpath alloc=0 locks=1 block=0
func (s *Service) Export(serviceType string, ref orb.ObjectRef, expires time.Time, schema *constraint.Schema, values []constraint.Value) (Place, error) {
	if serviceType == "" {
		return Place{}, fmt.Errorf("trading: offer without service type") //lint:alloc error slow path
	}
	return Place{s.upsert(s.shardFor(serviceType, ref), nil, serviceType, ref, expires, schema, values)}, nil
}

// ExportKeyed is Export of o: its type, reference and expiry, and a copy of its
// properties' values, so o's record stays the caller's. The GRM exports through
// Export; ExportKeyed is kept for benchmark/ and for tests that build offers
// whole.
//
//lint:hotpath alloc=0 locks=1 block=0
func (s *Service) ExportKeyed(o Offer) (Place, error) {
	r := o.Properties
	if r == nil {
		r = noProperties
	}
	schema, values := r.Parts()
	return s.Export(o.ServiceType, o.Ref, o.Expires, schema, values)
}

// Upsert makes the offer at place p one of p's type and reference with the
// given expiry and properties, values[i] being the schema's i-th, as Export
// would for p's reference, without finding the reference: it locks p's shard
// and stores into p's slot. It copies values into the offer, which holds them
// beside its record header, so the caller keeps the array and may reuse it
// once Upsert returns. Upsert reports false, and changes nothing, when p is
// dead or the zero Place: it never re-adds an offer.
//
//lint:hotpath alloc=0 locks=1 block=0
func (s *Service) Upsert(p Place, expires time.Time, schema *constraint.Schema, values []constraint.Value) bool {
	if p.e == nil {
		return false
	}
	return s.upsert(p.e.sh, p.e, "", orb.ObjectRef{}, expires, schema, values) != nil
}

// storedApart is an offer whose values do not fit inline: the stored offer and
// a copy of the values, apart.
//
//lint:coldpath a record longer than inlineValues
func storedApart(expires time.Time, schema *constraint.Schema, values []constraint.Value) *stored {
	st := &stored{rec: schema.Header(slices.Clone(values))}
	st.Expires, st.Properties = expires, &st.rec
	return st
}

// fill writes u as an offer of the given expiry and values, copied inline,
// and returns it as the stored offer to publish.
func (u *updated) fill(expires time.Time, schema *constraint.Schema, values []constraint.Value) *stored {
	n := copy(u.vals[:], values)
	clear(u.vals[n:])
	u.rec = schema.Header(u.vals[:n])
	u.Expires, u.Properties = expires, &u.rec
	return &u.stored
}

// reuse takes the offer a write into sh is to fill inline: the oldest offer on
// the shard's free list once no hold can reach it, and a new one while one
// might. The caller holds sh.mu.
func (s *Service) reuse(sh *shard) *updated {
	if sh.n == 0 || !s.graceOver(sh.free[sh.head].at) {
		return newUpdated()
	}
	u := sh.free[sh.head].u
	sh.free[sh.head] = retired{}
	if sh.head++; sh.head == len(sh.free) {
		sh.head = 0
	}
	sh.n--
	return u
}

// newUpdated is the offer a write fills when its shard has no retired offer it
// may rewrite: its free list is empty, as while its fleet registers, or a live
// hold could still reach the oldest offer on it.
//
//lint:coldpath no retired offer may be rewritten yet
func newUpdated() *updated { return new(updated) }

// retire appends u, which the caller's store has just unpublished, to the
// shard's free list, at the epoch read after that store. With as many retired
// offers as the shard has entries u is left to the collector instead. The
// caller holds sh.mu.
func (s *Service) retire(sh *shard, u *updated) {
	if sh.n >= len(sh.entries) {
		return
	}
	if sh.n == len(sh.free) {
		sh.growFree()
	}
	i := sh.head + sh.n
	if i >= len(sh.free) {
		i -= len(sh.free)
	}
	sh.free[i] = retired{u, s.epoch.Load()}
	sh.n++
}

// growFree doubles the free list's ring, oldest offer first.
//
//lint:coldpath the list outgrows its ring only while a hold keeps its offers from reuse
func (sh *shard) growFree() {
	next := make([]retired, max(1, 2*len(sh.free)))
	for i := range sh.n {
		next[i] = sh.free[(sh.head+i)%len(sh.free)]
	}
	sh.free, sh.head = next, 0
}

// upsert is the one write section of Export and Upsert. With e nil it writes
// the offer of ref's entry, adding the entry on the reference's first export;
// otherwise e's, unless e is dead. It fills the offer with the expiry and the
// values — inline, into an offer reuse takes, or apart — and returns the entry,
// or nil, storing nothing, when e is dead. The offer takes the type and
// reference of the entry's current one, and serviceType and ref on a first
// export.
//
// When nothing in the shard can have expired (now is short of sweepAt) and the
// offer's expiry keeps sweepAt a lower bound, upsert stores it into the entry's
// slot, or appends a reference's first offer past the snapshot's end;
// otherwise — an expiry to compact, a lower bound — it rebuilds the shard. The
// seq is drawn under the shard mutex, so a reference's offers are numbered in
// the order they replace each other. The inline offer it replaces, in no slot
// any more, joins the shard's free list, retired at the epoch read after the
// store. All of it is one section under the shard mutex.
func (s *Service) upsert(sh *shard, e *entry, serviceType string, ref orb.ObjectRef, expires time.Time, schema *constraint.Schema, values []constraint.Value) *entry {
	now := s.now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case e == nil:
		if e = sh.byRef[ref]; e == nil {
			e = sh.adopt(ref)
		}
	case e.slot < 0:
		return nil
	}
	var st *stored
	var own *updated
	if len(values) > inlineValues {
		st = storedApart(expires, schema, values)
	} else {
		own = s.reuse(sh)
		st = own.fill(expires, schema, values)
	}
	if e.st != nil {
		serviceType, ref = e.st.ServiceType, e.st.Ref
	}
	st.ServiceType, st.Ref = serviceType, ref
	st.seq = int(s.seq.Add(1))
	old := e.own
	e.st, e.own = st, own
	cur := sh.snap.Load()
	switch {
	case due(cur.sweepAt, now) || !earlier(cur.sweepAt, st.Expires).Equal(cur.sweepAt):
		sh.snap.Store(sh.rebuilt(cur, now, nil))
	case e.slot >= 0:
		cur.slots[e.slot].Store(st)
	default:
		sh.snap.Store(sh.appended(cur, now, e))
	}
	s.version.Add(1)
	if old != nil && e.slot >= 0 {
		s.retire(sh, old)
	}
	return e
}

// ExportBatch is ExportKeyed in bulk: it upserts many offers, rebuilding each
// touched shard once, and returns their export sequence numbers. A later offer
// for a ref replaces an earlier one, in the index or in the batch. The whole
// batch is one version step and takes one contiguous block of seqs.
func (s *Service) ExportBatch(offers []Offer) ([]int, error) {
	for i := range offers {
		if offers[i].ServiceType == "" {
			return nil, fmt.Errorf("trading: offer %d without service type", i)
		}
	}
	// The batch takes one contiguous block of sequence numbers, handed out
	// in submission order, so All returns a batch in the order it was given.
	// The block is reserved before any shard is locked, so a concurrent export
	// may publish a later number first; nothing rests on the order of slots.
	base := int(s.seq.Add(int64(len(offers)))) - len(offers)
	seqs := make([]int, len(offers))
	buckets := make(map[*shard][]*stored)
	var order []*shard
	for i := range offers {
		st := newStored(offers[i])
		st.seq = base + i + 1
		seqs[i] = st.seq
		sh := s.shardFor(st.ServiceType, st.Ref)
		if _, seen := buckets[sh]; !seen {
			order = append(order, sh)
		}
		buckets[sh] = append(buckets[sh], st)
	}
	now := s.now()
	for _, sh := range order {
		sh.mu.Lock()
		for _, st := range buckets[sh] {
			e := sh.byRef[st.Ref]
			if e == nil {
				e = sh.adopt(st.Ref)
			}
			e.st, e.own = st, nil
		}
		sh.snap.Store(sh.rebuilt(sh.snap.Load(), now, nil))
		sh.mu.Unlock()
	}
	s.version.Add(1)
	return seqs, nil
}

// adopt adds an entry for ref, the last of the shard's, with no slot until its
// caller, which holds sh.mu and sets the entry's offer, appends it or rebuilds
// the shard.
//
//lint:coldpath a reference's first export
func (sh *shard) adopt(ref orb.ObjectRef) *entry {
	e := &entry{sh: sh, slot: -1}
	sh.byRef[ref] = e
	sh.entries = append(sh.entries, e)
	return e
}

// appended publishes the offer of e, the entry adopt has just added, without a
// copy while cur's slot array has room: it stores the offer into the slot just
// past cur's end — where a rebuild would put it, e being the last entry — and
// returns a longer snapshot over the same array, with cur's sweepAt, which the
// caller, holding sh.mu, must store. No reader of cur indexes that slot, and no
// snapshot before reached it: an array's snapshots only grow, as a removal
// rebuilds. With the array full it returns the rebuild. The caller has checked
// that no sweep is due and that the offer keeps sweepAt a lower bound.
//
//lint:coldpath a reference's first export
func (sh *shard) appended(cur *shardSnap, now time.Time, e *entry) *shardSnap {
	n := len(cur.slots)
	if n == cap(cur.slots) {
		return sh.rebuilt(cur, now, nil)
	}
	e.slot = n
	next := &shardSnap{slots: cur.slots[:n+1], sweepAt: cur.sweepAt}
	next.slots[n].Store(e.st)
	return next
}

// rebuilt is the copy step of the copy-on-write writers: it returns a fresh
// snapshot, over a fresh slot array with slotHeadroom to grow into, holding the
// offers of the shard's entries — without drop's (nil: none) and, when cur's
// sweep is due, without those past their expiry — its sweepAt exact. It
// removes the dropped entries and moves every survivor's slot, so the caller,
// which holds sh.mu, must store the result. A removal must rebuild: moving an
// offer into a freed slot in place could show a reader its ref twice.
//
//lint:coldpath copy-on-write shard rebuild: the writer slow path
func (sh *shard) rebuilt(cur *shardSnap, now time.Time, drop *entry) *shardSnap {
	sweep := due(cur.sweepAt, now)
	next := &shardSnap{slots: make([]atomic.Pointer[stored], len(sh.entries), slotHeadroom*len(sh.entries))}
	kept := sh.entries[:0]
	for _, e := range sh.entries {
		if e == drop || sweep && e.st.expired(now) {
			delete(sh.byRef, e.st.Ref)
			e.slot, e.own = -1, nil
			continue
		}
		e.slot = len(kept)
		next.slots[e.slot].Store(e.st)
		next.sweepAt = earlier(next.sweepAt, e.st.Expires)
		kept = append(kept, e)
	}
	clear(sh.entries[len(kept):])
	sh.entries = kept
	next.slots = next.slots[:len(kept)]
	return next
}

// Withdraw removes the offer at place p — a rebuild of its one shard — and
// reports whether there was one: false for a dead or zero place.
func (s *Service) Withdraw(p Place) bool {
	e := p.e
	if e == nil {
		return false
	}
	sh := e.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.slot < 0 {
		return false
	}
	sh.snap.Store(sh.rebuilt(sh.snap.Load(), s.now(), e))
	s.version.Add(1)
	return true
}

// Count returns the number of live offers of the given type ("" for all).
func (s *Service) Count(serviceType string) int {
	h := s.Hold()
	defer h.Release()
	now := s.now()
	if serviceType != "" {
		return s.typeIndex(serviceType).count(now)
	}
	total := 0
	for _, ts := range *s.types.Load() {
		total += ts.count(now)
	}
	return total
}

// count is the number of live offers: a shard's slot count while its sweep
// bound is ahead of now, and a walk of the shard only once it is not.
func (ts *typeShards) count(now time.Time) int {
	if ts == nil {
		return 0
	}
	n := 0
	for i := range ts.shards {
		snap := ts.shards[i].snap.Load()
		n += len(snap.slots)
		if due(snap.sweepAt, now) {
			for j := range snap.slots {
				if snap.slots[j].Load().expired(now) {
					n--
				}
			}
		}
	}
	return n
}

// All returns every live offer of the given type ("" for all types) in
// export-sequence order — a deterministic snapshot for failover checks and
// observability, bypassing constraint evaluation. The offers are the caller's,
// as Select's are.
func (s *Service) All(serviceType string) []Offer {
	tm := *s.types.Load()
	types := []string{serviceType}
	if serviceType == "" {
		types = slices.Sorted(maps.Keys(tm))
	}
	h := s.Hold()
	defer h.Release()
	now := s.now()
	var matched []*Offer
	for _, t := range types {
		matched = append(matched, tm[t].scan(nil, now)...)
	}
	return owned(matched)
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

// visit is the one walk of the index every query is built on: it calls fn once
// for each of the type's live offers that satisfy cons (nil: all of them), in
// no order a caller may rely on. An offer whose constraint evaluation errors
// does not match.
//
// It takes a snapshot a block at a time, in three stages. Reaching an offer's
// values is a chain of dependent cache misses — the slot, the record header at
// the front of what it points to, the record's value array — and a fleet does
// not fit in cache; finishing one offer before touching the next pays them in
// turn, while each stage's loop over a block issues loads that do not depend
// on each other, so they overlap.
func (ts *typeShards) visit(cons *constraint.Expr, now time.Time, fn func(*Offer)) {
	if ts == nil {
		return
	}
	var (
		offs [constraint.BlockSize]*stored
		recs [constraint.BlockSize]*constraint.Record
		live [constraint.BlockSize]uint8
	)
	for i := range ts.shards {
		snap := ts.shards[i].snap.Load()
		sweep := due(snap.sweepAt, now)
		for slots := snap.slots; len(slots) > 0; {
			block := slots[:min(len(slots), constraint.BlockSize)]
			slots = slots[len(block):]
			// One: each slot, loaded once — and the offer behind it only in a
			// shard whose sweep bound has passed, where it may have expired.
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
			// Two: the constraint, a term across the block at a time.
			sel := live[:n]
			if cons != nil {
				sel = cons.Filter(recs[:len(block)], sel)
			}
			// Three: the matches.
			for _, j := range sel {
				fn(&offs[j].Offer)
			}
		}
	}
}

// visitSet is visit for several constraints at once: it calls fn once for each
// live offer that satisfies at least one of cons, with bit c of met set when it
// satisfies cons[c] (nil: every offer does). A constraint whose bit is in skip
// matches nothing. Each block's records are filtered against every constraint
// in turn, the first filter having brought them into cache for the rest.
func (ts *typeShards) visitSet(cons []*constraint.Expr, skip uint64, now time.Time, fn func(o *Offer, met uint64)) {
	if ts == nil {
		return
	}
	var (
		offs [constraint.BlockSize]*stored
		recs [constraint.BlockSize]*constraint.Record
		live [constraint.BlockSize]uint8
		sel  [constraint.BlockSize]uint8
		met  [constraint.BlockSize]uint64
	)
	for i := range ts.shards {
		snap := ts.shards[i].snap.Load()
		sweep := due(snap.sweepAt, now)
		for slots := snap.slots; len(slots) > 0; {
			block := slots[:min(len(slots), constraint.BlockSize)]
			slots = slots[len(block):]
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
			for _, j := range live[:n] {
				if met[j] != 0 {
					fn(&offs[j].Offer, met[j])
					met[j] = 0
				}
			}
		}
	}
}

// scan returns what visit yields, in ascending seq: global export order.
func (ts *typeShards) scan(cons *constraint.Expr, now time.Time) []*Offer {
	if ts == nil {
		return nil
	}
	total := 0
	for i := range ts.shards {
		total += len(ts.shards[i].snap.Load().slots)
	}
	matched := make([]*Offer, 0, total)
	ts.visit(cons, now, func(o *Offer) { //lint:alloc visit only calls it: it stays on the stack
		matched = append(matched, o) //lint:alloc presized: grows only if a shard gained offers since the count
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

// VisitMatches calls fn for every live offer of the service type that satisfies
// cons ("" for all of the type), straight off the shard snapshots: nothing is
// collected, sorted or copied. Each arrives once, in no order a caller may rely
// on — sort by Seq, or use Select, which copies, for export order. Against
// concurrent updates a visit sees, for each exporter, its offer from before or
// from after. The offers are the index's own: read-only, and never rewritten
// while a hold that could reach them is live. The visit runs under a hold of
// its own, so fn may read them; a caller that keeps them past the visit takes a
// Hold before it and keeps it for as long as it reads them.
//
//lint:hotpath alloc=0 locks=2 block=0
func (s *Service) VisitMatches(serviceType, cons string, fn func(*Offer)) error {
	expr, err := compile("constraint", cons)
	if err != nil {
		return err
	}
	h := s.Hold()
	defer h.Release()
	s.typeIndex(serviceType).visit(expr, s.now(), fn)
	return nil
}

// MaxVisitSet is the most constraints one VisitMatchSet takes: one bit each of
// the mask it reports.
const MaxVisitSet = 64

// VisitMatchSet is VisitMatches for up to MaxVisitSet constraints in one walk
// of the index. It calls fn once for every live offer of the service type that
// satisfies at least one of cons, with bit c of met set when the offer
// satisfies cons[c], in no order a caller may rely on; for each exporter it
// sees the offer from before or from after a concurrent update, as
// VisitMatches does, and met describes the offer fn is given; the offers are
// valid as VisitMatches' are, for the visit and for as long as a hold the
// caller took before it is live. A constraint that does not compile matches
// nothing and has its bit set in bad. More than MaxVisitSet constraints is a
// bug in the caller, and panics.
//
//lint:hotpath alloc=0 locks=2 block=0
func (s *Service) VisitMatchSet(serviceType string, cons []string, fn func(o *Offer, met uint64)) (bad uint64) {
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
	s.typeIndex(serviceType).visitSet(exprs[:len(cons)], bad, s.now(), fn)
	return bad
}

// Select evaluates a query, returning the matching offers in export order. The
// offers are the caller's: the walk copies them out of the index, property
// records and values included, before it releases its hold, so no later write
// to the index changes them and the caller may keep and change them as it
// likes. A reader that wants no copy (the GRM's matcher) uses VisitMatches
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
	return owned(s.typeIndex(q.ServiceType).scan(cons, s.now())), nil
}

// SelectShared is Select. It is kept only because benchmark/, which a change
// claiming a gain may not edit, calls it; nothing else should.
//
//lint:hotpath alloc=5 locks=2 block=0
func (s *Service) SelectShared(q Query) ([]Offer, error) { return s.Select(q) }

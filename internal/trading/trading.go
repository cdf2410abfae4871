// Package trading implements the ORB Trading service, the analogue of the
// CORBA Trading Service: servers export *offers* — typed property lists plus
// an object reference — and importers query them with constraint expressions
// and an optional preference (rank) expression.
//
// This is the exact role the paper assigns to the JacORB Trader: "The GRM
// uses the JacORB Trader to store the information it receives from the
// LRMs." Each LRM status update becomes an offer upsert; scheduling is a
// constraint query.
//
// The offer index is sharded copy-on-write (DESIGN.md §16): each service
// type owns shardsPerType shards keyed by the exporting object reference,
// and each shard publishes its live offers as an immutable snapshot behind
// an atomic.Pointer. Select loads the snapshots with no locks, filters each
// and merges the matches in export-sequence order, so readers never contend
// with writers and concurrent Export/Withdraw on different shards never
// contend with each other. Writers rebuild only their own shard's snapshot
// (copy, mutate the copy, swap under the shard mutex — the PR 4 ORB registry
// pattern).
package trading

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// ObjectKey is the adapter key under which the trading servant registers.
const ObjectKey = "trading"

// shardsPerType is the number of copy-on-write shards per service type.
// Offers are assigned to shards by a hash of their exporting reference, so
// the Information Update Protocol's keyed upserts (remove + re-export of one
// node's offer) rebuild 1/shardsPerType of the type's index instead of all
// of it, and updates for different nodes proceed in parallel.
const shardsPerType = 64

// Service errors.
var (
	// ErrUnknownOffer indicates a withdraw/describe of a non-existent offer.
	ErrUnknownOffer = errors.New("trading: unknown offer")
)

// Offer is one advertised service: a type name, the exporting object, and
// its properties. The properties are an immutable record, so copying an Offer
// copies everything a holder could change: exporting one hands the record to
// the trader without a copy, and every offer the trader returns shares the
// stored record.
type Offer struct {
	ID          string
	ServiceType string
	Ref         orb.ObjectRef
	Properties  *constraint.Record
	// Expires is the instant after which the offer is garbage; zero means
	// no expiry. LRM offers carry an expiry so that crashed nodes age out
	// of the trader (the staleness the Information Update Protocol bounds).
	Expires time.Time

	// seq is the service-assigned export sequence number, the sort key of
	// the per-type offer index. Offers constructed by callers have seq 0;
	// Export assigns the real one.
	seq int
}

// expired reports whether the offer is past its expiry at now.
func (o *Offer) expired(now time.Time) bool {
	return !o.Expires.IsZero() && !now.IsZero() && !o.Expires.After(now)
}

// Seq returns the offer's export sequence number: unique within a Service and
// ascending in the order SelectPointers and All return; zero until exported.
func (o *Offer) Seq() int { return o.seq }

// Query selects offers of a service type.
type Query struct {
	ServiceType string
	// Constraint filters offers; empty selects all of the type.
	Constraint string
	// Preference ranks matching offers (numeric expression, higher first);
	// empty preserves insertion order.
	Preference string
	// Limit bounds the result count; 0 means unlimited.
	Limit int
}

// compileCache memoizes constraint/preference compilation across every
// trader instance. Query sources repeat heavily — the GRM renders the same
// constraint text for every scheduling pass over a given application spec —
// so Select hits the cache on all but the first sight of a source.
var compileCache = constraint.NewCache(0)

// shardSnap is one shard's immutable published state: the live offers in
// ascending export-sequence order. Snapshots are never mutated after the
// Store; writers build a fresh one.
type shardSnap struct {
	offers []*Offer
}

// emptySnap is the shared snapshot of an offer-less shard; it is never
// mutated, so every empty shard can publish the same pointer.
var emptySnap = &shardSnap{}

// shard is one copy-on-write slice of a service type's offer index.
type shard struct {
	// mu serializes snapshot rebuilds and guards byRef. Readers never take
	// it: they load snap and walk the immutable snapshot.
	//
	//lint:guards snap
	mu   sync.Mutex
	snap atomic.Pointer[shardSnap]
	// byRef is the per-ref reverse index: every live offer in this shard's
	// snapshot, grouped by exporting reference in ascending seq order. It
	// makes keyed upserts and WithdrawRef O(offers-per-ref) instead of a
	// full-index scan. Mutated in place under mu; never read without it.
	byRef map[orb.ObjectRef][]*Offer
}

// typeShards is one service type's shard set. The array is fixed at
// construction; only the snapshots inside the shards change.
type typeShards struct {
	shards [shardsPerType]shard
}

// refShard maps an exporting reference to its shard index within a type.
func refShard(ref orb.ObjectRef) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ref.Endpoint.Net))
	_, _ = h.Write([]byte(ref.Endpoint.Addr))
	_, _ = h.Write([]byte(ref.Key))
	return int(h.Sum32() % shardsPerType)
}

// offerLoc is the registry's record of where one offer lives.
type offerLoc struct {
	offer *Offer
	shard *shard
}

// Service is the in-memory trader. Safe for concurrent use.
//
// Offers are indexed three ways: a registry by ID for describe/withdraw,
// per-(type, ref-hash) shard snapshots holding the live offers in ascending
// seq order (the lock-free read path), and a per-shard reverse index by
// exporting reference (the keyed-upsert/eviction path). Keeping every shard
// sorted by seq is what lets Select merge shards into the exact global
// export order with no per-query sort (DESIGN.md §13, §16).
type Service struct {
	// seq is the global export sequence; atomic so concurrent exports on
	// different shards never serialize on it.
	seq atomic.Int64
	// version counts index mutations. Readers that cache Select results
	// (the GRM's batch matcher) revalidate against it: an unchanged version
	// means the snapshot they cached is still the live one.
	version atomic.Uint64

	// mu guards ids and serializes growth of the types map, which is
	// copy-on-write: writers copy the map, add the new type's shard set and
	// swap; readers load it lock-free.
	//
	//lint:guards types
	mu    sync.Mutex
	ids   map[string]offerLoc
	types atomic.Pointer[map[string]*typeShards]

	now func() time.Time
}

// NewService returns an empty trader. The now function drives offer expiry;
// pass the clock's Now (or nil for no expiry checks).
func NewService(now func() time.Time) *Service {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	s := &Service{
		ids: make(map[string]offerLoc),
		now: now,
	}
	types := make(map[string]*typeShards)
	s.types.Store(&types)
	return s
}

// Version returns the index mutation counter. Cached Select results are
// valid only while the version is unchanged (and no cached offer has hit
// its expiry).
func (s *Service) Version() uint64 { return s.version.Load() }

// typeIndex returns the shard set for a service type, or nil when the type
// has never been exported. Lock-free.
func (s *Service) typeIndex(serviceType string) *typeShards {
	return (*s.types.Load())[serviceType]
}

// ensureType returns the shard set for a service type, creating it (one
// copy-on-write swap of the types map) on first export of the type.
func (s *Service) ensureType(serviceType string) *typeShards {
	if ts := s.typeIndex(serviceType); ts != nil {
		return ts
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.types.Load()
	if ts := (*cur)[serviceType]; ts != nil {
		return ts
	}
	ts := &typeShards{}
	for i := range ts.shards {
		ts.shards[i].snap.Store(emptySnap)
		ts.shards[i].byRef = make(map[orb.ObjectRef][]*Offer)
	}
	next := make(map[string]*typeShards, len(*cur)+1)
	for k, v := range *cur {
		next[k] = v
	}
	next[serviceType] = ts
	s.types.Store(&next)
	return ts
}

// Export registers an offer and returns its ID.
func (s *Service) Export(o Offer) (string, error) {
	if o.ServiceType == "" {
		return "", fmt.Errorf("trading: offer without service type")
	}
	sh := &s.ensureType(o.ServiceType).shards[refShard(o.Ref)]
	removed := sh.insert(&s.seq, nil, &o, s.now())
	s.commit(&o, sh, removed)
	return o.ID, nil
}

// ExportKeyed upserts an offer identified by (serviceType, ref): at most one
// offer per exporting object per type. Used by the Information Update
// Protocol where each LRM refreshes its single status offer. The replaced
// offer (the ref's oldest, when several exist) and its replacement live in
// the same shard, so an upsert is a single-shard rebuild.
func (s *Service) ExportKeyed(o Offer) (string, error) {
	if o.ServiceType == "" {
		return "", fmt.Errorf("trading: offer without service type")
	}
	sh := &s.ensureType(o.ServiceType).shards[refShard(o.Ref)]
	removed := sh.insert(&s.seq, &o.Ref, &o, s.now())
	s.commit(&o, sh, removed)
	return o.ID, nil
}

// ExportBatch registers many offers in one pass, rebuilding each touched
// shard exactly once instead of once per offer. This is the bulk-load path:
// priming a bench fleet or replaying a replication snapshot costs O(n)
// instead of the O(n²/shards) of n sequential Exports.
func (s *Service) ExportBatch(offers []Offer) ([]string, error) {
	for i := range offers {
		if offers[i].ServiceType == "" {
			return nil, fmt.Errorf("trading: offer %d without service type", i)
		}
	}
	// The batch takes one contiguous block of sequence numbers, handed out
	// in submission order, so All returns a batch in the order it was given.
	// The block is reserved before any shard is locked; insertBatch merges
	// by seq, so a concurrent export that reached a shard first stays in
	// order.
	base := int(s.seq.Add(int64(len(offers)))) - len(offers)
	ids := make([]string, len(offers))
	buckets := make(map[*shard][]*Offer)
	var order []*shard
	for i := range offers {
		off := offers[i]
		off.setSeq(base + i + 1)
		ids[i] = off.ID
		sh := &s.ensureType(off.ServiceType).shards[refShard(off.Ref)]
		if _, seen := buckets[sh]; !seen {
			order = append(order, sh)
		}
		buckets[sh] = append(buckets[sh], &off)
	}
	now := s.now()
	var removed []*Offer
	for _, sh := range order {
		adds := buckets[sh]
		removed = append(removed, sh.insertBatch(adds, now)...)
		s.mu.Lock()
		for _, off := range adds {
			s.ids[off.ID] = offerLoc{offer: off, shard: sh}
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	for _, off := range removed {
		delete(s.ids, off.ID)
	}
	s.mu.Unlock()
	s.version.Add(1)
	return ids, nil
}

// setSeq gives an offer its export sequence number and the ID derived from
// it. Only writers call it, before the offer is published in a snapshot.
func (o *Offer) setSeq(seq int) {
	o.seq = seq
	o.ID = "offer-" + strconv.Itoa(seq)
}

// commit finishes a single-offer mutation: the registry learns the new
// offer and forgets the removed ones, and the version advances.
func (s *Service) commit(added *Offer, sh *shard, removed []*Offer) {
	s.mu.Lock()
	if added != nil {
		s.ids[added.ID] = offerLoc{offer: added, shard: sh}
	}
	for _, off := range removed {
		delete(s.ids, off.ID)
	}
	s.mu.Unlock()
	s.version.Add(1)
}

// insert is the copy-on-write writer for one new offer: under sh.mu it
// takes add's sequence number from seq, builds a fresh snapshot without the
// victim (when victimOldestOf is non-nil, the ref's oldest existing offer —
// the keyed-upsert semantics) and without any offer past its expiry, appends
// add, maintains byRef, and swaps the snapshot in. Drawing the number under
// the lock is what makes the append keep the snapshot seq-sorted: every
// offer already in the shard drew an earlier one, and a writer that draws a
// later one is still waiting for the lock. It returns every offer that left
// the snapshot — the victim plus compacted expired offers — for registry
// cleanup.
//
//lint:coldpath copy-on-write shard rebuild: the writer slow path
func (sh *shard) insert(seq *atomic.Int64, victimOldestOf *orb.ObjectRef, add *Offer, now time.Time) []*Offer {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	add.setSeq(int(seq.Add(1)))
	var drop *Offer
	if victimOldestOf != nil {
		if prev := sh.byRef[*victimOldestOf]; len(prev) > 0 {
			drop = prev[0]
		}
	}
	cur := sh.snap.Load()
	next := &shardSnap{offers: make([]*Offer, 0, len(cur.offers)+1)}
	var removed []*Offer
	for _, o := range cur.offers {
		if o == drop || o.expired(now) {
			removed = append(removed, o)
			sh.dropRefLocked(o)
			continue
		}
		next.offers = append(next.offers, o)
	}
	next.offers = append(next.offers, add)
	sh.byRef[add.Ref] = append(sh.byRef[add.Ref], add)
	sh.snap.Store(next)
	return removed
}

// insertBatch is insert for a batch of offers sharing one snapshot swap.
// adds already carry their sequence numbers, ascending; they were drawn
// before the lock was taken, so a concurrent insert may have published a
// later number first, and adds are merged into place, not appended.
//
//lint:coldpath copy-on-write shard rebuild: the writer slow path
func (sh *shard) insertBatch(adds []*Offer, now time.Time) []*Offer {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.snap.Load()
	next := &shardSnap{offers: make([]*Offer, 0, len(cur.offers)+len(adds))}
	var removed []*Offer
	merged := 0
	for _, o := range cur.offers {
		if o.expired(now) {
			removed = append(removed, o)
			sh.dropRefLocked(o)
			continue
		}
		for merged < len(adds) && adds[merged].seq < o.seq {
			next.offers = append(next.offers, adds[merged])
			merged++
		}
		next.offers = append(next.offers, o)
	}
	next.offers = append(next.offers, adds[merged:]...)
	for _, add := range adds {
		list := append(sh.byRef[add.Ref], add)
		for i := len(list) - 1; i > 0 && list[i-1].seq > list[i].seq; i-- {
			list[i-1], list[i] = list[i], list[i-1]
		}
		sh.byRef[add.Ref] = list
	}
	sh.snap.Store(next)
	return removed
}

// remove rebuilds the snapshot without victim (when non-nil) and without
// anything expired.
//
//lint:coldpath copy-on-write shard rebuild: the writer slow path
func (sh *shard) remove(victim *Offer, now time.Time) []*Offer {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.snap.Load()
	next := &shardSnap{offers: make([]*Offer, 0, len(cur.offers))}
	var removed []*Offer
	for _, o := range cur.offers {
		if o == victim || o.expired(now) {
			removed = append(removed, o)
			sh.dropRefLocked(o)
			continue
		}
		next.offers = append(next.offers, o)
	}
	sh.snap.Store(next)
	return removed
}

// removeRef rebuilds the snapshot without every offer exported by ref,
// returning the removed offers plus how many of them were ref's. The
// reverse index answers the no-offers case without a rebuild.
//
//lint:coldpath copy-on-write shard rebuild: the writer slow path
func (sh *shard) removeRef(ref orb.ObjectRef, now time.Time) ([]*Offer, int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	count := len(sh.byRef[ref])
	if count == 0 {
		return nil, 0
	}
	cur := sh.snap.Load()
	next := &shardSnap{offers: make([]*Offer, 0, len(cur.offers))}
	var removed []*Offer
	for _, o := range cur.offers {
		if o.Ref == ref || o.expired(now) {
			removed = append(removed, o)
			sh.dropRefLocked(o)
			continue
		}
		next.offers = append(next.offers, o)
	}
	sh.snap.Store(next)
	return removed, count
}

// dropRefLocked removes one offer from the reverse index. Caller holds
// sh.mu.
func (sh *shard) dropRefLocked(o *Offer) {
	list := sh.byRef[o.Ref]
	for i, e := range list {
		if e == o {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(sh.byRef, o.Ref)
	} else {
		sh.byRef[o.Ref] = list
	}
}

// Withdraw removes an offer by ID.
func (s *Service) Withdraw(id string) error {
	s.mu.Lock()
	loc, ok := s.ids[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, id)
	}
	sh := loc.shard
	removed := sh.remove(loc.offer, s.now())
	s.commit(nil, nil, removed)
	// The registry entry survives a rebuild that compacted the offer as
	// expired before we reached it; drop it either way.
	s.mu.Lock()
	delete(s.ids, id)
	s.mu.Unlock()
	return nil
}

// WithdrawRef removes every offer of the given type exported by ref,
// returning the count removed. All of a ref's offers hash to one shard, so
// eviction is a single-shard rebuild driven by the reverse index —
// O(offers-per-ref), not a scan of the type's whole index.
func (s *Service) WithdrawRef(serviceType string, ref orb.ObjectRef) int {
	ts := s.typeIndex(serviceType)
	if ts == nil {
		return 0
	}
	sh := &ts.shards[refShard(ref)]
	removed, count := sh.removeRef(ref, s.now())
	if len(removed) > 0 {
		s.commit(nil, nil, removed)
	}
	return count
}

// Describe returns the offer by ID.
func (s *Service) Describe(id string) (Offer, error) {
	s.mu.Lock()
	loc, ok := s.ids[id]
	s.mu.Unlock()
	if !ok {
		return Offer{}, fmt.Errorf("%w: %q", ErrUnknownOffer, id)
	}
	return *loc.offer, nil
}

// Count returns the number of live offers of the given type ("" for all).
func (s *Service) Count(serviceType string) int {
	now := s.now()
	if serviceType != "" {
		return s.countType(serviceType, now)
	}
	total := 0
	for t := range *s.types.Load() {
		total += s.countType(t, now)
	}
	return total
}

func (s *Service) countType(serviceType string, now time.Time) int {
	ts := s.typeIndex(serviceType)
	if ts == nil {
		return 0
	}
	n := 0
	for i := range ts.shards {
		for _, o := range ts.shards[i].snap.Load().offers {
			if !o.expired(now) {
				n++
			}
		}
	}
	return n
}

// All returns every live offer of the given type ("" for all types) in
// export-sequence order — a deterministic snapshot for failover checks and
// observability, bypassing constraint evaluation.
func (s *Service) All(serviceType string) []Offer {
	tm := *s.types.Load()
	types := []string{serviceType}
	if serviceType == "" {
		types = slices.Sorted(maps.Keys(tm))
	}
	now := s.now()
	var out []Offer
	for _, t := range types {
		out = append(out, offerValues(tm[t].scan(nil, now))...)
	}
	return out
}

// offerValues copies offers out of the index. The copies share their
// immutable property records with it.
func offerValues(offers []*Offer) []Offer {
	out := make([]Offer, len(offers))
	for i, o := range offers {
		out[i] = *o
	}
	return out
}

// visit is the one walk of the index every query is built on: it calls fn for
// each of the type's live offers that satisfy cons (nil: all of them), a
// shard's offers in ascending seq, the shards in no order a caller may rely on.
// An offer whose constraint evaluation errors does not match.
//
// It takes a snapshot a block at a time, in three stages. Reaching an offer's
// values is three dependent cache misses — the offer, its record, the record's
// value array — and a fleet does not fit in cache; finishing one offer before
// touching the next pays them in turn, while each stage's loop over a block
// issues loads that do not depend on each other, so they overlap.
func (ts *typeShards) visit(cons *constraint.Expr, now time.Time, fn func(*Offer)) {
	if ts == nil {
		return
	}
	var (
		recs [constraint.BlockSize]*constraint.Record
		live [constraint.BlockSize]uint8
	)
	for i := range ts.shards {
		offers := ts.shards[i].snap.Load().offers
		for len(offers) > 0 {
			block := offers[:min(len(offers), constraint.BlockSize)]
			offers = offers[len(block):]
			// One: the first touch of each offer — expiry, and its record.
			n := 0
			for j, o := range block {
				if !o.expired(now) {
					recs[j] = o.Properties
					live[n] = uint8(j)
					n++
				}
			}
			// Two: the constraint, a term across the block at a time.
			sel := live[:n]
			if cons != nil {
				sel = cons.Filter(recs[:len(block)], sel)
			}
			// Three: the matches, in snapshot order.
			for _, j := range sel {
				fn(block[j])
			}
		}
	}
}

// scan returns what visit yields, in ascending global seq order. It merges
// only what matched: a shard's matches are a subsequence of a seq-sorted
// snapshot, so the visit is a sequence of seq-sorted runs — a new one starts
// wherever seq steps down, at most one per shard — and merging sorted runs of
// distinct numbers gives the one sorted order whatever was filtered out.
func (ts *typeShards) scan(cons *constraint.Expr, now time.Time) []*Offer {
	if ts == nil {
		return nil
	}
	total := 0
	for i := range ts.shards {
		total += len(ts.shards[i].snap.Load().offers)
	}
	matched := make([]*Offer, 0, total)
	var runs [shardsPerType]runHead
	nruns, last := 0, 0
	ts.visit(cons, now, func(o *Offer) { //lint:alloc visit only calls it: it stays on the stack
		if nruns == 0 || o.seq < last {
			runs[nruns] = runHead{seq: o.seq, pos: int32(len(matched))}
			nruns++
		}
		last = o.seq
		matched = append(matched, o) //lint:alloc presized: grows only if a shard gained offers since the count
		runs[nruns-1].end = int32(len(matched))
	})
	return mergeRuns(matched, runs[:nruns])
}

// runHead is the cursor of one run offers[pos:end] in mergeRuns. It carries
// the seq of offers[pos], so that ordering two runs compares integers on the
// stack instead of dereferencing two offers.
type runHead struct {
	seq      int
	pos, end int32
}

// mergeRuns merges the seq-sorted, non-empty runs of offers that heads
// describes into one seq-sorted slice, through a binary min-heap of the heads.
func mergeRuns(offers []*Offer, heads []runHead) []*Offer {
	if len(heads) <= 1 {
		return offers
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	out := make([]*Offer, len(offers))
	for n := range out {
		top := &heads[0]
		out[n] = offers[top.pos]
		if top.pos++; top.pos < top.end {
			top.seq = offers[top.pos].seq
		} else {
			*top = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}
	return out
}

// siftDown restores the heap below position i.
func siftDown(heads []runHead, i int) {
	for {
		least := 2*i + 1
		if least >= len(heads) {
			return
		}
		if r := least + 1; r < len(heads) && heads[r].seq < heads[least].seq {
			least = r
		}
		if heads[i].seq <= heads[least].seq {
			return
		}
		heads[i], heads[least] = heads[least], heads[i]
		i = least
	}
}

// compile returns the cached compilation of a query's constraint or preference
// source; the empty source compiles to nil.
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
// collected, merged or copied. One exporter's offers arrive in export order;
// across exporters the order is unspecified — sort by Seq, or use
// SelectPointers, for the global one. The offers are the index's own, as
// SelectPointers' are: read-only, valid for as long as the caller holds them.
//
//lint:hotpath alloc=0 locks=2 block=0
func (s *Service) VisitMatches(serviceType, cons string, fn func(*Offer)) error {
	expr, err := compile("constraint", cons)
	if err != nil {
		return err
	}
	s.typeIndex(serviceType).visit(expr, s.now(), fn)
	return nil
}

// Select evaluates a query, returning matching offers best-first. The
// returned offers are the caller's; their property records are the stored
// ones, which nobody can write to.
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
	matched, err := s.SelectPointers(q)
	if err != nil {
		return nil, err
	}
	return offerValues(matched), nil
}

// SelectShared is Select. It is kept only because benchmark/, which a change
// claiming a gain may not edit, calls it; nothing else should.
//
//lint:hotpath alloc=5 locks=2 block=0
func (s *Service) SelectShared(q Query) ([]Offer, error) { return s.Select(q) }

// SelectPointers is the one query path; Select copies its result. It returns
// the index's own offers: an *Offer is published once, inside an immutable
// shard snapshot, and no writer touches it again — an update or withdrawal
// swaps in a snapshot without it. A holder may therefore keep and read the
// pointers for as long as it likes without a lock, and must never write
// through them. It is for in-process readers that want the matches in export
// order and copy none of them; one that does not need the order (the GRM's
// matcher) uses VisitMatches and skips the merge.
//
//lint:hotpath alloc=4 locks=2 block=0
func (s *Service) SelectPointers(q Query) ([]*Offer, error) {
	cons, err := compile("constraint", q.Constraint)
	if err != nil {
		return nil, err
	}
	pref, err := compile("preference", q.Preference)
	if err != nil {
		return nil, err
	}

	// Candidates arrive in ascending seq — the iteration order of a single
	// seq-sorted index, which downstream output is pinned to byte for byte.
	matched := s.typeIndex(q.ServiceType).scan(cons, s.now())
	if pref != nil {
		type scored struct {
			score float64
			offer *Offer
		}
		ranked := make([]scored, len(matched))
		for i, o := range matched {
			score, _ := pref.EvalNumber(o.Properties) // 0 where it does not evaluate
			ranked[i] = scored{score, o}
		}
		slices.SortStableFunc(ranked, func(a, b scored) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			}
			return 0
		})
		for i, r := range ranked {
			matched[i] = r.offer
		}
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched, nil
}

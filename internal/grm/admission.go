package grm

import (
	"errors"
	"math/bits"
	"slices"
	"time"

	"integrade/internal/trading"
)

// ErrAdmissionFull is returned by Submit when the bounded admission queue is
// at capacity. Callers are expected to back off and resubmit; the rejection
// is counted in Stats.AdmissionRejected and replicated to the followers.
var ErrAdmissionFull = errors.New("grm: admission queue full")

// Admission pipeline defaults.
const (
	// DefaultAdmissionLimit bounds the number of applications waiting for
	// their first scheduling pass. Beyond it Submit rejects with
	// ErrAdmissionFull rather than queueing unbounded work.
	DefaultAdmissionLimit = 4096
	// DefaultAdmissionBatch is how many queued applications one drain
	// iteration matches against a single trader snapshot.
	DefaultAdmissionBatch = 64
)

// WithAdmissionLimit sets the bounded admission queue capacity (default
// DefaultAdmissionLimit). Submissions beyond it fail with ErrAdmissionFull.
func WithAdmissionLimit(n int) Option {
	return func(g *GRM) { g.admitLimit = n }
}

// WithAdmissionBatch sets how many queued applications are matched per
// drain iteration (default DefaultAdmissionBatch).
func WithAdmissionBatch(n int) Option {
	return func(g *GRM) { g.admitBatch = n }
}

// WithAsyncAdmission decouples Submit from placement: Submit returns as soon
// as the application is queued and a background drainer matches batches
// against one offer snapshot per batch. The default is synchronous — Submit
// drains the queue before returning, preserving the seed's
// submit-then-placed semantics (and byte-identical experiment output).
func WithAsyncAdmission() Option {
	return func(g *GRM) { g.asyncAdmit = true }
}

// matchEntry caches one constraint's candidate set within a matchCtx: under
// a keyed policy the policy's ranking, under a stateful one the matches in
// export order (every key zero, so the order is the ordinal's). The offers are
// the trader's own: read-only.
type matchEntry struct {
	rank       *ranking
	minExpires time.Time // earliest expiry among the cached offers
	// unused marks an entry prefill made that no lookup has returned yet: its
	// first use counts as the snapshot miss the lazy fill would have been.
	unused bool
}

// matchCtx amortizes trader queries across one scheduling batch. Entries are
// keyed by constraint text and are valid only while (a) the trader version
// is unchanged — any Export/Withdraw invalidates the whole context — and
// (b) no cached offer has expired. Both guards make a cache hit provably
// identical to re-running the trader query, which is what keeps batched
// scheduling byte-identical to the seed's query-per-task path.
type matchCtx struct {
	g       *GRM
	version uint64
	entries map[string]*matchEntry
	hits    int
	misses  int
}

func (g *GRM) newMatchCtx() *matchCtx {
	return &matchCtx{g: g, entries: make(map[string]*matchEntry)}
}

// candidates returns app's candidates in policy order, serving repeats within
// the batch from the snapshot cache. The offers are read-only either way: the
// trader's own under a keyed policy, elements of the stateful policy's private
// result otherwise.
func (mc *matchCtx) candidates(app *appInfo) (*ranking, error) {
	ent, err := mc.lookup(app.constraint)
	if err != nil {
		return nil, err
	}
	if _, keyed := mc.g.policy.(keyedPolicy); keyed {
		return ent.rank, nil
	}
	// A stateful policy sees value copies, as its public signature says, and
	// is invoked once per query: since negotiation is per node, that is once
	// per application placed, not once per task, and its state advances so.
	return settledRanking(mc.g.policy.Order(ent.rank.values(), mc.g.rng)), nil
}

// lookup returns the cached candidate set for one constraint, refilling via
// the trader on version change, expiry, or first sight. This is the batch
// matcher's inner loop: a hit costs one atomic load, one map probe and at
// worst one clock read.
//
//lint:hotpath alloc=2 locks=2 block=0
func (mc *matchCtx) lookup(cons string) (*matchEntry, error) {
	// Read the version before the query below: if a trader write lands
	// between the two, the entry is tagged with the older version and the
	// next lookup conservatively refills.
	mc.sync()
	if ent, ok := mc.entries[cons]; ok {
		if ent.minExpires.IsZero() || mc.g.clock.Now().Before(ent.minExpires) {
			if ent.unused {
				ent.unused = false
				mc.misses++
			} else {
				mc.hits++
			}
			return ent, nil
		}
	}
	mc.misses++
	return mc.fill(cons)
}

// sync drops every entry once the trader has changed since they were filled.
func (mc *matchCtx) sync() {
	if v := mc.g.trader.Version(); v != mc.version {
		clear(mc.entries)
		mc.version = v
	}
}

// fill runs the trader query for one constraint and caches the result. One
// visit does everything that reads the matching offers — the policy's key while
// the record is in cache, the earliest expiry — and since a key carries its
// offer's seq, nothing needs the matches in export order. The keys are collected
// in the GRM's scratch, the match count being unknown until the visit ends, and
// cloned to exact size, because the ranking outlives the fill.
//
//lint:coldpath snapshot miss: full trader query
func (mc *matchCtx) fill(cons string) (*matchEntry, error) {
	g := mc.g
	kp, _ := g.policy.(keyedPolicy)
	keys, mets := g.takeScratch()
	ent := &matchEntry{}
	err := g.trader.VisitMatches(NodeStatusType, cons, func(o *trading.Offer) {
		k := rankKey{ord: o.Seq(), offer: o}
		if kp != nil {
			k.k1, k.k2 = kp.key(o)
		}
		keys = append(keys, k)
		if e := o.Expires; !e.IsZero() && (ent.minExpires.IsZero() || e.Before(ent.minExpires)) {
			ent.minExpires = e
		}
	})
	ent.rank = newRanking(slices.Clone(keys))
	g.returnScratch(keys, mets)
	if err != nil {
		return nil, err
	}
	mc.entries[cons] = ent
	return ent, nil
}

// prefill fills the entries of a batch's distinct constraints before their
// first lookup, when there are two or more: one walk of the trader's offers per
// trading.MaxVisitSet of them, where lookup's lazy fill would walk once per
// constraint, and one policy key per matching offer, however many of the
// constraints it meets. The entries are what the lazy fills would have made,
// ranking for ranking, and lookup counts each one's first use as the miss it
// replaces. A batch of one constraint — as a rule a synchronous Submit's, one
// application — is left to the lazy fill, the faster walk for one constraint.
func (mc *matchCtx) prefill(batch []*appInfo) {
	conses := make([]string, 0, trading.MaxVisitSet)
	for _, app := range batch {
		if !slices.Contains(conses, app.constraint) {
			conses = append(conses, app.constraint)
		}
	}
	if len(conses) < 2 {
		return
	}
	for len(conses) > 0 {
		n := min(len(conses), trading.MaxVisitSet)
		mc.fillSet(conses[:n])
		conses = conses[n:]
	}
}

// fillSet fills the entries of up to trading.MaxVisitSet distinct constraints
// in one trader walk. The walk collects each matching offer's key once, with
// the set of constraints it met, in the GRM's scratch; the keys are then dealt
// out into one array cut at exact size for each constraint. A constraint that
// does not compile gets no entry: its lookup fails as the lazy fill's would.
//
//lint:coldpath snapshot miss: one trader walk for a batch's constraints
func (mc *matchCtx) fillSet(conses []string) {
	g := mc.g
	kp, _ := g.policy.(keyedPolicy)
	keys, mets := g.takeScratch()
	var (
		counts [trading.MaxVisitSet]int
		mins   [trading.MaxVisitSet]time.Time
	)
	mc.sync()
	bad := g.trader.VisitMatchSet(NodeStatusType, conses, func(o *trading.Offer, met uint64) {
		k := rankKey{ord: o.Seq(), offer: o}
		if kp != nil {
			k.k1, k.k2 = kp.key(o)
		}
		keys = append(keys, k)
		mets = append(mets, met)
		e := o.Expires
		for m := met; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			counts[c]++
			if !e.IsZero() && (mins[c].IsZero() || e.Before(mins[c])) {
				mins[c] = e
			}
		}
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	var ranks [trading.MaxVisitSet][]rankKey
	all, at := make([]rankKey, total), 0
	for c := range conses {
		ranks[c] = all[at : at : at+counts[c]]
		at += counts[c]
	}
	for i, k := range keys {
		for m := mets[i]; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			ranks[c] = append(ranks[c], k)
		}
	}
	g.returnScratch(keys, mets)
	for c, cons := range conses {
		if bad&(1<<c) == 0 {
			mc.entries[cons] = &matchEntry{rank: newRanking(ranks[c]), minExpires: mins[c], unused: true}
		}
	}
}

// takeScratch takes the GRM's key and constraint-set buffers, empty, leaving
// nil for a concurrent fill, which allocates its own.
func (g *GRM) takeScratch() ([]rankKey, []uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys, mets := g.rankScratch[:0], g.metScratch[:0]
	g.rankScratch, g.metScratch = nil, nil
	return keys, mets
}

// returnScratch gives the buffers back. The keys are cleared first: the
// scratch must not keep withdrawn offers alive.
func (g *GRM) returnScratch(keys []rankKey, mets []uint64) {
	clear(keys)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rankScratch, g.metScratch = keys, mets
}

// matchBatch runs one scheduling pass over a batch of applications against a
// single matchCtx, so every task in the batch shares trader snapshots and (for
// keyed policies) candidate rankings. Runs with no GRM lock held.
func (g *GRM) matchBatch(batch []*appInfo) {
	mc := g.newMatchCtx()
	mc.prefill(batch)
	for _, app := range batch {
		g.scheduleApp(app, mc)
	}
	g.mu.Lock()
	g.stats.SnapshotHits += mc.hits
	g.stats.SnapshotMisses += mc.misses
	g.mu.Unlock()
}

// drainAdmission empties the admission queue from the calling goroutine,
// batch by batch. Only one drainer runs at a time: the draining latch
// serializes them. A synchronous caller that finds the latch held waits on
// drainDone — holding no lock — then re-checks the queue, so a synchronous
// Submit never returns while its own application could still be queued. The
// background drainer kickDrain starts exits instead, and also once the GRM
// stops: the latch holder drains on, and a later Submit kicks a fresh
// drainer, so no admission is lost.
func (g *GRM) drainAdmission(background bool) {
	for {
		g.mu.Lock()
		if g.draining && !background {
			ch := g.drainDone
			g.mu.Unlock()
			<-ch
			continue
		}
		if g.draining || len(g.admitQ) == 0 || background && g.stopped {
			if background {
				g.drainerRunning = false
			}
			g.mu.Unlock()
			return
		}
		g.draining = true
		g.drainDone = make(chan struct{})
		batch := g.takeBatchLocked()
		g.mu.Unlock()
		g.matchBatch(batch)
		g.mu.Lock()
		g.draining = false
		close(g.drainDone)
		g.mu.Unlock()
	}
}

// kickDrain starts the background drainer if none is running. Called with
// no lock held — the goroutine spawn must not happen under g.mu, since the
// drainer's batch work issues Reserve/Execute RPCs. Used only in
// async-admission mode.
func (g *GRM) kickDrain() {
	g.mu.Lock()
	if g.drainerRunning || g.stopped {
		g.mu.Unlock()
		return
	}
	g.drainerRunning = true
	g.mu.Unlock()
	g.drainWG.Add(1)
	go func() {
		defer g.drainWG.Done()
		g.drainAdmission(true)
	}()
}

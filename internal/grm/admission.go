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

// matchEntry caches one constraint's candidate set within a matchCtx: a view
// of the ranking it was filled into, under a keyed policy in the policy's
// order, under a stateful one in export order (every key zero, so the order is
// the ordinal's). The offers are the trader's own: read-only.
type matchEntry struct {
	view
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
//
// The rankings' keys live in keys, the GRM's scratch, which the context takes
// at its first fill and hands back at close.
type matchCtx struct {
	g       *GRM
	version uint64
	entries map[string]*matchEntry
	keys    []rankKey
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
func (mc *matchCtx) candidates(app *appInfo) (view, error) {
	ent, err := mc.lookup(app.constraint)
	if err != nil {
		return view{}, err
	}
	if _, keyed := mc.g.policy.(keyedPolicy); keyed {
		return ent.view, nil
	}
	// A stateful policy sees value copies, as its public signature says, and
	// is invoked once per query: since negotiation is per node, that is once
	// per application placed, not once per task, and its state advances so.
	return settledView(mc.g.policy.Order(ent.values(), mc.g.rng)), nil
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

// sync drops every entry once the trader has changed since they were filled,
// and with them their keys: the scratch starts over.
func (mc *matchCtx) sync() {
	if v := mc.g.trader.Version(); v != mc.version {
		clear(mc.entries)
		clear(mc.keys)
		mc.keys = mc.keys[:0]
		mc.version = v
	}
}

// fill runs the trader query for one constraint and caches the result. One
// visit does everything that reads the matching offers — the policy's key while
// the record is in cache, the earliest expiry — and since a key carries its
// offer's seq, nothing needs the matches in export order. The keys are appended
// to the context's scratch, the match count being unknown until the visit
// ends, and ranked where they lie.
//
//lint:coldpath snapshot miss: full trader query
func (mc *matchCtx) fill(cons string) (*matchEntry, error) {
	g := mc.g
	kp, _ := g.policy.(keyedPolicy)
	mc.takeScratch()
	keys, start := mc.keys, len(mc.keys)
	ent := &matchEntry{}
	err := g.trader.VisitMatches(NodeStatusType, cons, func(o *trading.Offer) {
		k := rankKey{ord: o.Seq(), offer: o, met: 1}
		if kp != nil {
			k.k1, k.k2 = kp.key(o)
		}
		keys = append(keys, k)
		if e := o.Expires; !e.IsZero() && (ent.minExpires.IsZero() || e.Before(ent.minExpires)) {
			ent.minExpires = e
		}
	})
	mc.keys = keys
	if err != nil {
		return nil, err
	}
	ent.view = wholeView(keys[start:])
	mc.entries[cons] = ent
	return ent, nil
}

// prefill fills the entries of a batch's distinct constraints before their
// first lookup, when there are two or more: one walk of the trader's offers per
// trading.MaxVisitSet of them, where lookup's lazy fill would walk once per
// constraint, and one policy key per matching offer, however many of the
// constraints it meets. The entries yield what the lazy fills' would have,
// candidate for candidate, and lookup counts each one's first use as the miss
// it replaces. A batch of one constraint — as a rule a synchronous Submit's, one
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
// in one trader walk. The walk appends each matching offer's key once to the
// context's scratch, carrying the set of constraints it met, and the keys are
// ranked once, where they lie: each constraint's entry is the view of its bit.
// A constraint that does not compile gets no entry: its lookup fails as the
// lazy fill's would.
//
//lint:coldpath snapshot miss: one trader walk for a batch's constraints
func (mc *matchCtx) fillSet(conses []string) {
	g := mc.g
	kp, _ := g.policy.(keyedPolicy)
	var (
		counts [trading.MaxVisitSet]int
		mins   [trading.MaxVisitSet]time.Time
	)
	mc.sync()
	mc.takeScratch()
	keys, start := mc.keys, len(mc.keys)
	bad := g.trader.VisitMatchSet(NodeStatusType, conses, func(o *trading.Offer, met uint64) {
		k := rankKey{ord: o.Seq(), offer: o, met: met}
		if kp != nil {
			k.k1, k.k2 = kp.key(o)
		}
		keys = append(keys, k)
		e := o.Expires
		for m := met; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			counts[c]++
			if !e.IsZero() && (mins[c].IsZero() || e.Before(mins[c])) {
				mins[c] = e
			}
		}
	})
	mc.keys = keys
	r := newRanking(keys[start:])
	for c, cons := range conses {
		if bad&(1<<c) == 0 {
			mc.entries[cons] = &matchEntry{view: view{r: r, bit: 1 << c, n: counts[c]}, minExpires: mins[c], unused: true}
		}
	}
}

// takeScratch makes the GRM's scratch the key buffer of a context that has
// none, leaving nil: a concurrent context finds it taken and appends to a
// buffer of its own.
func (mc *matchCtx) takeScratch() {
	if mc.keys != nil {
		return
	}
	mc.g.mu.Lock()
	mc.keys, mc.g.rankScratch = mc.g.rankScratch, nil
	mc.g.mu.Unlock()
}

// close hands the context's key buffer to the GRM for the next context,
// cleared — the scratch must not keep withdrawn offers alive. The context's
// candidates are dead from here on.
func (mc *matchCtx) close() {
	if mc.keys == nil {
		return
	}
	clear(mc.keys)
	mc.g.mu.Lock()
	mc.g.rankScratch, mc.keys = mc.keys[:0], nil
	mc.g.mu.Unlock()
}

// matchBatch runs one scheduling pass over a batch of applications against a
// single matchCtx, so every task in the batch shares trader snapshots and (for
// keyed policies) candidate rankings. Runs with no GRM lock held.
func (g *GRM) matchBatch(batch []*appInfo) {
	mc := g.newMatchCtx()
	defer mc.close()
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

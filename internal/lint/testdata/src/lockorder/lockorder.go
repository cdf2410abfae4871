// Fixture for the locks analyzer's lock-order facts: a declared hierarchy
// with compliant nestings (direct, transitive over a chain declaration, and
// through a helper call) that must stay silent, a declared-order inversion,
// direct and helper-mediated undocumented edges, an observed two-lock cycle,
// a self-deadlock through a helper, and a suppressed re-entry carrying the
// //lint:allow escape hatch.
package lockorder

import "sync"

// The declared hierarchy: account < ledger < tape (the chain declares its
// consecutive pairs, and coverage is transitive), journal < index.
//
//lint:lockorder lockorder.Account.mu<lockorder.Ledger.mu<lockorder.Tape.mu
//lint:lockorder lockorder.Journal.mu<lockorder.Index.mu

// Account is the outermost lock of the declared chain.
type Account struct {
	mu      sync.Mutex
	balance int
}

// Ledger sits in the middle of the declared chain.
type Ledger struct {
	mu      sync.Mutex
	entries []int
}

// Tape is the innermost lock of the declared chain.
type Tape struct {
	mu     sync.Mutex
	frames int
}

// Post nests directly along the declared order: silent.
func Post(a *Account, l *Ledger, amount int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.balance += amount
	l.mu.Lock()
	l.entries = append(l.entries, amount)
	l.mu.Unlock()
}

// Archive relies on transitivity: account < tape follows from the chain
// declaration, so this is silent too.
func Archive(a *Account, t *Tape) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t.mu.Lock()
	t.frames++
	t.mu.Unlock()
}

// Pay holds the account lock across a helper that takes the ledger lock;
// the declared pair covers the transitive acquisition: silent.
func Pay(a *Account, l *Ledger, amount int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.balance -= amount
	logEntry(l, amount)
}

func logEntry(l *Ledger, amount int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, amount)
}

// Journal and Index carry a declared order that Rebuild violates.
type Journal struct {
	mu   sync.Mutex
	recs []int
}

// Index is declared to nest inside the journal lock.
type Index struct {
	mu   sync.Mutex
	keys map[int]int
}

// Rebuild nests against the declared journal < index order.
func Rebuild(j *Journal, ix *Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	j.mu.Lock() // want `lock order inversion: lockorder\.Journal\.mu acquired while holding lockorder\.Index\.mu, but the declared order is lockorder\.Journal\.mu < lockorder\.Index\.mu`
	j.recs = j.recs[:0]
	j.mu.Unlock()
}

// Cache fills from a backing store with no declaration covering the nesting.
type Cache struct {
	mu   sync.Mutex
	data map[string]string
}

// Backing is the store the cache loads through.
type Backing struct {
	mu   sync.Mutex
	data map[string]string
}

// Fill acquires the backing lock under the cache lock; the edge is real but
// undeclared.
func Fill(c *Cache, b *Backing, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.mu.Lock() // want `undocumented lock-order edge lockorder\.Cache\.mu -> lockorder\.Backing\.mu; declare //lint:lockorder lockorder\.Cache\.mu<lockorder\.Backing\.mu or fix the ordering`
	c.data[key] = b.data[key]
	b.mu.Unlock()
}

// Pool refills through a helper while holding its own lock; the transitive
// edge is undeclared and the diagnostic carries the call chain.
type Pool struct {
	mu   sync.Mutex
	free []int
}

// Source feeds the pool.
type Source struct {
	mu   sync.Mutex
	next int
}

// Take refills under the pool lock when empty.
func Take(p *Pool, s *Source) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		refill(p, s) // want `undocumented lock-order edge lockorder\.Pool\.mu -> lockorder\.Source\.mu \(via lockorder\.refill\); declare //lint:lockorder lockorder\.Pool\.mu<lockorder\.Source\.mu or fix the ordering`
	}
	v := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return v
}

func refill(p *Pool, s *Source) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.free = append(p.free, s.next)
	s.next++
}

// Left and Right are nested in both orders by two code paths: the classic
// two-lock deadlock. Both edges are undocumented, and the cycle is reported
// once at its earliest contributing site.
type Left struct {
	mu sync.Mutex
	n  int
}

// Right is the other half of the deadlock pair.
type Right struct {
	mu sync.Mutex
	n  int
}

// TakeLR locks left then right.
func TakeLR(l *Left, r *Right) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.mu.Lock() // want `undocumented lock-order edge lockorder\.Left\.mu -> lockorder\.Right\.mu; declare //lint:lockorder lockorder\.Left\.mu<lockorder\.Right\.mu or fix the ordering` `lock-order cycle \(potential deadlock\): lockorder\.Left\.mu -> lockorder\.Right\.mu -> lockorder\.Left\.mu`
	r.n = l.n
	r.mu.Unlock()
}

// TakeRL locks right then left.
func TakeRL(l *Left, r *Right) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.mu.Lock() // want `undocumented lock-order edge lockorder\.Right\.mu -> lockorder\.Left\.mu; declare //lint:lockorder lockorder\.Right\.mu<lockorder\.Left\.mu or fix the ordering`
	l.n = r.n
	l.mu.Unlock()
}

// Gate re-enters its own lock through a helper: self-deadlock.
type Gate struct {
	mu   sync.Mutex
	open bool
}

// Close calls a helper that takes the already-held gate lock.
func (g *Gate) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = false
	g.reopen() // want `lock lockorder\.Gate\.mu acquired while already held \(via lockorder\.\(\*Gate\)\.reopen\)`
}

func (g *Gate) reopen() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = true
}

// Reset makes the same re-entrant call but is suppressed with a written
// justification, standing in for the drop-and-relock idiom the analyzer's
// flow-insensitive summary cannot see.
func (g *Gate) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	//lint:allow locks stands in for a helper that drops the lock before re-taking it
	g.reopen()
}

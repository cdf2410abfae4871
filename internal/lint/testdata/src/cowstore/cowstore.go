// Fixture for the cowstore analyzer: mutation through a Load()ed snapshot
// (direct, via a variable, map element through a pointer, and a shallow
// value copy whose map field was not refreshed), Store of the pointer just
// loaded, read-modify-write outside (and without) the declared writer
// mutex, plus the clean idioms that must stay silent: copy-then-swap under
// the declared mutex, whole-field refresh before mutating, blind
// constructor stores and CompareAndSwap loops. A snapshot whose slots are
// atomic pointers may be stored into in place, under the declared mutex and
// not outside it. Malformed //lint:guards declarations are diagnostics too.
package cowstore

import (
	"sync"
	"sync/atomic"
)

type config struct {
	name string
	tags map[string]string
}

// Registry follows the repo's copy-on-write idiom: readers Load, writers
// copy-and-swap under mu.
type Registry struct {
	// mu serializes writers of cfg and table.
	//
	//lint:guards cfg,table
	mu    sync.Mutex
	cfg   atomic.Pointer[config]
	table atomic.Pointer[map[string]int]
}

// mutateThroughSnapshot writes straight through the loaded pointer.
func (r *Registry) mutateThroughSnapshot() {
	r.cfg.Load().name = "oops" // want `field write through Load\(\)ed snapshot`
}

// mutateViaVariable stashes the snapshot first; the write is still shared.
func (r *Registry) mutateViaVariable() {
	st := r.cfg.Load()
	st.name = "oops" // want `field write through Load\(\)ed snapshot`
}

// mutateSharedMap writes an element of the snapshot's map.
func (r *Registry) mutateSharedMap() {
	(*r.table.Load())["k"] = 1 // want `element write into a map/slice still shared`
}

// mutateStaleCopy value-copies the snapshot but forgets to refresh the map
// field before writing: the map header still aliases the snapshot.
func (r *Registry) mutateStaleCopy() {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := *r.cfg.Load()
	next.tags["k"] = "v" // want `element write into a map/slice still shared`
	r.cfg.Store(&next)
}

// storeLoaded publishes the very pointer it loaded: no copy happened.
func (r *Registry) storeLoaded() {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.cfg.Load()
	r.cfg.Store(st) // want `the copy step was skipped`
}

// rmwOutsideMutex does Load→Store without holding the declared writer
// mutex: concurrent writers would lose updates.
func (r *Registry) rmwOutsideMutex(name string) {
	next := *r.cfg.Load()
	next.name = name
	r.cfg.Store(&next) // want `outside the declared writer mutex r.mu`
}

// cleanWriter is the canonical idiom and must stay silent: lock, load,
// value-copy, refresh the map field, mutate the copy, swap.
func (r *Registry) cleanWriter(k, v string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cfg.Load()
	next := &config{name: old.name, tags: make(map[string]string, len(old.tags)+1)}
	for kk, vv := range old.tags {
		next.tags[kk] = vv
	}
	next.tags[k] = v
	r.cfg.Store(next)
}

// cleanRefresh value-copies and refreshes the map field whole before
// writing it; silent.
func (r *Registry) cleanRefresh(k, v string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cfg.Load()
	next := *old
	next.tags = make(map[string]string, len(old.tags)+1)
	for kk, vv := range old.tags {
		next.tags[kk] = vv
	}
	next.tags[k] = v
	r.cfg.Store(&next)
}

// NewRegistry's blind Store (no Load in the body) is a constructor reset,
// not a read-modify-write; silent.
func NewRegistry() *Registry {
	r := &Registry{}
	r.cfg.Store(&config{tags: map[string]string{}})
	t := map[string]int{}
	r.table.Store(&t)
	return r
}

// Unguarded declares no writer mutex for its pointer.
type Unguarded struct {
	mu  sync.Mutex
	cfg atomic.Pointer[config]
}

// rmwNoGuard read-modify-writes a pointer with no declared writer mutex —
// even under a lock the analyzer cannot tie them together.
func (u *Unguarded) rmwNoGuard() {
	u.mu.Lock()
	defer u.mu.Unlock()
	next := *u.cfg.Load()
	next.name = "x"
	u.cfg.Store(&next) // want `no declared writer mutex`
}

// casLoop retries with CompareAndSwap instead of Store; silent.
func (u *Unguarded) casLoop(name string) {
	for {
		old := u.cfg.Load()
		next := *old
		next.name = name
		if u.cfg.CompareAndSwap(old, &next) {
			return
		}
	}
}

// slotted is a snapshot whose membership is copy-on-write and whose slots are
// updated in place.
type slotted struct {
	slots []atomic.Pointer[config]
}

// Table publishes a slotted snapshot.
type Table struct {
	//lint:guards snap
	mu   sync.Mutex
	snap atomic.Pointer[slotted]
}

// storeInPlace replaces one slot's occupant under the declared mutex: the
// snapshot pointer is not re-published, and no copy was skipped; silent.
func (t *Table) storeInPlace(i int, c *config) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	cur.slots[i].Store(c)
}

// storeUnguarded does the same store with no lock: it races the writer that
// is copying the slots into the next snapshot, and the store is lost.
func (t *Table) storeUnguarded(i int, c *config) {
	cur := t.snap.Load()
	cur.slots[i].Store(c)          // want `element Store into the Load\(\)ed snapshot of .*cowstore.Table.snap outside the declared writer mutex t.mu`
	t.snap.Load().slots[i].Swap(c) // want `element Swap into the Load\(\)ed snapshot of .*cowstore.Table.snap outside the declared writer mutex t.mu`
}

// BadDecl's guards list names a field the struct does not have, and its
// second directive sits on a non-mutex field.
type BadDecl struct {
	//lint:guards nosuch
	mu sync.Mutex // want `//lint:guards names "nosuch", but struct BadDecl has no such field`
	//lint:guards cfg
	n   int // want `//lint:guards on non-mutex field n`
	cfg atomic.Pointer[config]
}

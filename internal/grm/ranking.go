package grm

import (
	"cmp"
	"iter"
	"slices"

	"integrade/internal/trading"
)

// rankKey is one candidate's place in the policy order: descending k1, then
// descending k2, then ascending ord. ord is unique within a ranking — the
// trader's export seq, or the input position — so the order is total: it does
// not depend on the order the keys were collected in, and it is the order a
// stable sort by (k1, k2) gives an input that arrives in ord order. met is the
// set of views the candidate belongs to, one bit each.
type rankKey struct {
	k1, k2 float64
	ord    int
	offer  *trading.Offer
	met    uint64
}

// compareKeys sorts worst first: it is positive when a is the better
// candidate. A NaN key is worse than every number and ties with other NaNs
// (cmp.Compare).
func compareKeys(a, b rankKey) int {
	if c := cmp.Compare(a.k1, b.k1); c != 0 {
		return c
	}
	if c := cmp.Compare(a.k2, b.k2); c != 0 {
		return c
	}
	return cmp.Compare(b.ord, a.ord)
}

// ranking is a heapsort of the candidates that runs only as far as somebody
// asks: a placement tries a handful of candidates out of thousands. keys[:heap]
// is a max-heap, the best unsettled candidate at its root; keys[heap:] is
// sorted, so the candidates best first are keys read from the back, and
// settling one more is a pop into the slot the heap gives up. One goroutine
// uses a ranking at a time (its matchCtx's), and what one hit of a batch
// settled stays settled for the next. Consumers read it through views.
type ranking struct {
	keys []rankKey
	heap int
}

// newRanking takes ownership of keys, in any order, and heapifies them: O(n).
//
//lint:hotpath alloc=1 locks=0 block=0
func newRanking(keys []rankKey) *ranking {
	for i := len(keys)/2 - 1; i >= 0; i-- {
		siftDown(keys, i)
	}
	return &ranking{keys: keys, heap: len(keys)}
}

// siftDown restores the heap below position i.
func siftDown(h []rankKey, i int) {
	for {
		best := 2*i + 1
		if best >= len(h) {
			return
		}
		if r := best + 1; r < len(h) && compareKeys(h[r], h[best]) > 0 {
			best = r
		}
		if compareKeys(h[i], h[best]) >= 0 {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// pop settles the best unsettled candidate.
//
//lint:hotpath alloc=0 locks=0 block=0
func (r *ranking) pop() {
	r.heap--
	r.keys[0], r.keys[r.heap] = r.keys[r.heap], r.keys[0]
	siftDown(r.keys[:r.heap], 0)
}

// settle finishes the sort. A consumer that reads the whole order calls it
// first: one sort beats a pop per candidate.
//
//lint:hotpath alloc=0 locks=0 block=0
func (r *ranking) settle() {
	slices.SortFunc(r.keys[:r.heap], compareKeys)
	r.heap = 0
}

// view is one constraint's candidates in a ranking that may hold other
// constraints' too: the n keys whose met has bit set. The order is total, so
// the members come out of the shared order exactly as out of a ranking of
// their own.
type view struct {
	r   *ranking
	bit uint64
	n   int
}

// wholeView is the view of a ranking of keys that all carry bit 1.
func wholeView(keys []rankKey) view {
	return view{r: newRanking(keys), bit: 1, n: len(keys)}
}

// best yields the members best first, settling the shared order as far as the
// consumer pulls and no further than the last member: a view with no members
// pops nothing.
func (v view) best() iter.Seq[*trading.Offer] {
	return func(yield func(*trading.Offer) bool) {
		r := v.r
		for i, seen := len(r.keys)-1, 0; seen < v.n; i-- {
			if i < r.heap {
				r.pop()
			}
			if r.keys[i].met&v.bit == 0 {
				continue
			}
			seen++
			if !yield(r.keys[i].offer) {
				return
			}
		}
	}
}

// values settles the order and returns copies of the members, best first.
func (v view) values() []trading.Offer {
	v.r.settle()
	out := make([]trading.Offer, 0, v.n)
	for o := range v.best() {
		out = append(out, *o)
	}
	return out
}

// settledView is the view of offers that already are in order.
func settledView(offers []trading.Offer) view {
	keys := make([]rankKey, len(offers))
	for i := range offers {
		keys[len(keys)-1-i] = rankKey{offer: &offers[i], met: 1}
	}
	return view{r: &ranking{keys: keys}, bit: 1, n: len(keys)}
}

// rankValues orders offers a caller holds by value — the public Order of the
// keyed policies — with the input position as the ordinal.
func rankValues(offers []trading.Offer, key func(*trading.Offer) (float64, float64)) []trading.Offer {
	keys := make([]rankKey, len(offers))
	for i := range offers {
		k1, k2 := key(&offers[i])
		keys[i] = rankKey{k1: k1, k2: k2, ord: i, offer: &offers[i], met: 1}
	}
	return wholeView(keys).values()
}

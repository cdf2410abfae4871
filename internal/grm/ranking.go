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
// stable sort by (k1, k2) gives an input that arrives in ord order.
type rankKey struct {
	k1, k2 float64
	ord    int
	offer  *trading.Offer
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
// settled stays settled for the next.
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

// best yields the candidates best first, settling the order as far as the
// consumer pulls.
func (r *ranking) best() iter.Seq[*trading.Offer] {
	return func(yield func(*trading.Offer) bool) {
		for i := len(r.keys) - 1; i >= 0; i-- {
			if i < r.heap {
				r.pop()
			}
			if !yield(r.keys[i].offer) {
				return
			}
		}
	}
}

// values settles the order and returns copies of the candidates, best first.
func (r *ranking) values() []trading.Offer {
	r.settle()
	out := make([]trading.Offer, 0, len(r.keys))
	for o := range r.best() {
		out = append(out, *o)
	}
	return out
}

// settledRanking is the ranking of offers that already are in order.
func settledRanking(offers []trading.Offer) *ranking {
	keys := make([]rankKey, len(offers))
	for i := range offers {
		keys[len(keys)-1-i].offer = &offers[i]
	}
	return &ranking{keys: keys}
}

// rankValues orders offers a caller holds by value — the public Order of the
// keyed policies — with the input position as the ordinal.
func rankValues(offers []trading.Offer, key func(*trading.Offer) (float64, float64)) []trading.Offer {
	keys := make([]rankKey, len(offers))
	for i := range offers {
		k1, k2 := key(&offers[i])
		keys[i] = rankKey{k1: k1, k2: k2, ord: i, offer: &offers[i]}
	}
	return newRanking(keys).values()
}

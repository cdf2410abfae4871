package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for experiments. It wraps math/rand
// with the distributions the workload generators need. It is not safe for
// concurrent use; derive per-goroutine instances with Fork.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent RNG whose stream is a deterministic function of
// the parent seed and the label hash, so adding consumers does not perturb
// existing streams.
func (g *RNG) Fork(label string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRNG(g.r.Int63() ^ h)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// pareto returns a bounded Pareto-distributed value with shape alpha and
// minimum xmin. Heavy-tailed durations (user sessions, job sizes) use this.
func (g *RNG) pareto(alpha, xmin float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xmin / math.Pow(u, 1/alpha)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pick returns a uniformly random element of xs. It panics on empty input.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}

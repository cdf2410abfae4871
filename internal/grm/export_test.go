package grm

import "time"

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

// Members returns g's node membership: each member's ID and its departure
// deadline, in UTC (zero while it does not depart).
func Members(g *GRM) map[string]time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := make(map[string]time.Time, len(g.nodes))
	for id, lv := range g.nodes {
		m[id] = lv.departUntil.UTC()
	}
	return m
}

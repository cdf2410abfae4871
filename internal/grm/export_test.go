package grm

// QueuedIDs returns the IDs waiting in g's admission queue, in order.
func QueuedIDs(g *GRM) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := make([]string, len(g.admitQ))
	for i, app := range g.admitQ {
		ids[i] = app.id
	}
	return ids
}

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

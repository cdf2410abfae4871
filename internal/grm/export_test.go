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

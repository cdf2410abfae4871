package grm

import (
	"cmp"
	"slices"
	"testing"

	"integrade/internal/orb"
)

// TestPromotionBatchSize10k measures the full-state batch a leader proposes
// when it takes office (LeadAt marks every node, every app and the queue)
// for a GRM that has learned loopbackUpdates' 10⁴-node fleet through
// GRMClient.Update, windows included. A bounded AppendEntries splits a log
// into runs of entries but sends an entry whole, so this one entry has to
// fit an ORB frame (64 MiB) on its own; the test fails at a quarter of it.
func TestPromotionBatchSize10k(t *testing.T) {
	const frameLimit = 64 << 20 // the ORB's largest frame
	_, fleet := loopbackUpdates(t, 10000)
	g, client, stop := loopbackGRM(t)
	defer stop()
	for i := range fleet {
		if _, err := client.Update(fleet[i]); err != nil {
			t.Fatal(err)
		}
	}

	var e orb.Encoder
	g.mu.Lock()
	ents := []entity{queueEntity}
	for id := range g.nodes {
		ents = append(ents, entity{entityNode, id})
	}
	for id := range g.apps {
		ents = append(ents, entity{entityApp, id})
	}
	slices.SortFunc(ents, func(a, b entity) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	})
	nodes := len(g.nodes)
	g.batchLocked(ents).encode(&e)
	g.mu.Unlock()

	if nodes != len(fleet) {
		t.Fatalf("the GRM learned %d of %d nodes", nodes, len(fleet))
	}
	size := e.Len()
	t.Logf("promotion batch over %d nodes: %d B (%.1f MiB, %.0f B a node, %.1f%% of a frame)",
		nodes, size, float64(size)/(1<<20), float64(size)/float64(nodes), 100*float64(size)/frameLimit)
	if size >= frameLimit/4 {
		t.Fatalf("promotion batch is %d B, past a quarter of the %d B frame limit", size, frameLimit)
	}
}

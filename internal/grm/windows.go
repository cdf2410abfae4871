package grm

import (
	"time"

	"integrade/internal/protocol"
	"integrade/internal/trading"
)

// DefaultMinWindowConfidence is the confidence floor below which a forecast
// availability window is ignored by the placement filter: a window backed by
// fewer than half the training days is treated as no forecast at all.
const DefaultMinWindowConfidence = 0.5

// HandleDeparting processes a graceful-departure announcement: the node's
// trader offer is withdrawn immediately (no waiting for the offer TTL or the
// heartbeat-miss threshold) and the node enters the Departing state, exempt
// from the failure detector until the announced deadline. The LRM drains its
// running tasks (TaskEventDrained) before sending the notice, so by the time
// this runs the node should be empty; any stragglers are caught by the
// normal eviction path once the deadline passes.
func (g *GRM) HandleDeparting(n protocol.DepartureNotice) {
	g.mu.Lock()
	place, known := g.departLocked(n.NodeID, n.Deadline)
	g.stats.GracefulDepartures++
	g.mu.Unlock()
	if known {
		g.trader.Withdraw(place)
		g.log.Debug("node departing", "node", n.NodeID, "deadline", n.Deadline)
	}
}

// estimatedRuntime converts a spec's per-task work into wall-clock time at
// the allocation's CPU rate (0 when the spec declares no work or rate — the
// window filter cannot judge those and lets every offer pass).
func estimatedRuntime(spec protocol.ApplicationSpec) time.Duration {
	alloc := spec.EffectiveAlloc()
	if spec.WorkPerTask <= 0 || alloc.MIPS <= 0 {
		return 0
	}
	return time.Duration(spec.WorkPerTask / alloc.MIPS * float64(time.Second))
}

// offerFitsWindow reports whether an offer's current availability window can
// hold a task that must run until deadline. Dedicated nodes and nodes
// without a forecast (window end 0) always fit; a forecast below the
// confidence floor is treated as absent.
func offerFitsWindow(o *trading.Offer, deadline float64) bool {
	if boolProp(o, fieldDedicated) {
		return true
	}
	end := numProp(o, fieldWindowEnd)
	if end == 0 || numProp(o, fieldWindowConf) < DefaultMinWindowConfidence {
		return true
	}
	return end >= deadline
}

// windowFilter returns a cursor over the ranked candidates best first, minus
// those whose availability window ends before the spec's estimated runtime
// would complete. It filters nothing unless the GRM was built WithWindowAware.
// Whether any candidate, or every one, fails is a property of the set and not
// of its order, so the violations are counted over the view's members as they
// lie in the shared keys and the order is settled only as far as the consumer
// pulls. When every candidate fails, all of them are returned: window-aware
// placement prefers safe nodes but degrades to window-blind behaviour rather
// than stranding work nothing can host safely.
func (g *GRM) windowFilter(ranked view, spec protocol.ApplicationSpec) cursor {
	c := ranked.best()
	runtime := estimatedRuntime(spec)
	if !g.windowAware || runtime <= 0 {
		return c
	}
	deadline := float64(g.clock.Now().Add(runtime).Unix())
	violations := 0
	for _, k := range ranked.r.keys {
		if k.met&ranked.bit != 0 && !offerFitsWindow(k.offer, deadline) {
			violations++
		}
	}
	if violations == 0 || violations == ranked.n {
		return c
	}
	g.mu.Lock()
	g.stats.WindowRejected += violations
	g.mu.Unlock()
	c.filtered, c.deadline = true, deadline
	return c
}

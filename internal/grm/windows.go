package grm

import (
	"time"

	"integrade/internal/orb"
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
	lv := g.nodes[n.NodeID]
	known := lv != nil
	var ref orb.ObjectRef
	if known {
		lv.departing = true
		lv.departUntil = n.Deadline
		ref = lv.lrm
		if g.repl != nil {
			// The standby mirrors the withdrawal: a promoted standby must
			// not re-export a node that said goodbye.
			g.repl.enqueueNodeGone(n.NodeID, lv.lrm)
		}
	}
	g.stats.GracefulDepartures++
	g.mu.Unlock()
	if known {
		g.trader.WithdrawRef(NodeStatusType, ref)
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

// windowFilter drops candidates whose availability window ends before the
// spec's estimated runtime would complete. It is a no-op unless the GRM was
// built WithWindowAware. The ordered slice may be a shared snapshot-cache
// slice, so violations produce a fresh slice instead of mutating in place.
// When every candidate fails the filter the unfiltered list is returned:
// window-aware placement prefers safe nodes but degrades to window-blind
// behaviour rather than stranding work nothing can host safely.
func (g *GRM) windowFilter(ordered []*trading.Offer, spec protocol.ApplicationSpec) []*trading.Offer {
	if !g.windowAware || len(ordered) == 0 {
		return ordered
	}
	runtime := estimatedRuntime(spec)
	if runtime <= 0 {
		return ordered
	}
	deadline := float64(g.clock.Now().Add(runtime).Unix())
	violations := 0
	for _, o := range ordered {
		if !offerFitsWindow(o, deadline) {
			violations++
		}
	}
	if violations == 0 {
		return ordered
	}
	if violations == len(ordered) {
		return ordered
	}
	kept := make([]*trading.Offer, 0, len(ordered)-violations)
	for _, o := range ordered {
		if offerFitsWindow(o, deadline) {
			kept = append(kept, o)
		}
	}
	g.mu.Lock()
	g.stats.WindowRejected += violations
	g.mu.Unlock()
	return kept
}

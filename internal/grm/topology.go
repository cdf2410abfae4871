package grm

import (
	"sort"

	"integrade/internal/protocol"
	"integrade/internal/trading"
)

// scheduleTopology places a virtual-topology request — the paper's "two
// groups of 50 nodes, each group connected internally by a 100 Mbps network
// and the two groups connected by a 10 Mbps network".
//
// Model: candidates carry a LAN ID; members of one LAN communicate at their
// advertised net bandwidth, LANs interconnect over a backbone of
// g.backboneMbps. A group must be placed entirely within LANs whose nodes
// meet the group's intra-group bandwidth; distinct groups may land on
// different LANs only when the backbone meets the inter-group bandwidth.
func (g *GRM) scheduleTopology(app *appInfo, pending []*taskInfo, mc *matchCtx) {
	topo := app.spec.Topology
	ranked, err := mc.candidates(app)
	if err != nil {
		g.log.Warn("topology candidate query failed", "app", app.id, "err", err)
		return
	}

	// Group candidates by LAN, preserving policy order within each. This reads
	// the whole order, so settle it in one sort.
	ranked.r.settle()
	byLAN := make(map[string][]*trading.Offer)
	var lanIDs []string
	c := g.windowFilter(ranked, app.spec)
	for o := c.next(); o != nil; o = c.next() {
		lan := strProp(o, fieldLAN)
		if _, seen := byLAN[lan]; !seen {
			lanIDs = append(lanIDs, lan)
		}
		byLAN[lan] = append(byLAN[lan], o)
	}
	// Deterministic LAN iteration: larger candidate pools first.
	sort.SliceStable(lanIDs, func(i, j int) bool {
		if len(byLAN[lanIDs[i]]) != len(byLAN[lanIDs[j]]) {
			return len(byLAN[lanIDs[i]]) > len(byLAN[lanIDs[j]])
		}
		return lanIDs[i] < lanIDs[j]
	})

	// Assign each group to a LAN: biggest groups first (hardest to place).
	type groupAssign struct {
		group  protocol.TopologyGroup
		tasks  []*taskInfo
		lan    string
		offers []*trading.Offer
	}
	assigns := make([]groupAssign, len(topo.Groups))
	next := 0
	for i, grp := range topo.Groups {
		assigns[i] = groupAssign{group: grp, tasks: pending[next : next+grp.Nodes]}
		next += grp.Nodes
	}
	order := make([]int, len(assigns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return assigns[order[a]].group.Nodes > assigns[order[b]].group.Nodes
	})

	used := make(map[string]int) // LAN -> candidates consumed
	lansChosen := make(map[string]bool)
	for _, idx := range order {
		ga := &assigns[idx]
		placedLAN := ""
		for _, lan := range lanIDs {
			offers := byLAN[lan]
			// Filter candidates meeting the intra-group bandwidth.
			var eligible []*trading.Offer
			for _, o := range offers {
				if numProp(o, fieldNetFree) >= ga.group.IntraMbps {
					eligible = append(eligible, o)
				}
			}
			if len(eligible)-used[lan] < ga.group.Nodes {
				continue
			}
			ga.offers = eligible[used[lan] : used[lan]+ga.group.Nodes]
			used[lan] += ga.group.Nodes
			placedLAN = lan
			break
		}
		if placedLAN == "" {
			g.mu.Lock()
			g.stats.PlacementFailures++
			g.mu.Unlock()
			return // cannot satisfy this group; whole request stays pending
		}
		ga.lan = placedLAN
		lansChosen[placedLAN] = true
	}

	// Inter-group bandwidth: only relevant when groups span multiple LANs.
	if len(lansChosen) > 1 && g.backboneMbps < topo.InterMbps {
		g.mu.Lock()
		g.stats.PlacementFailures++
		g.mu.Unlock()
		g.log.Debug("topology rejected: backbone below inter-group bandwidth",
			"app", app.id, "backbone", g.backboneMbps, "required", topo.InterMbps)
		return
	}

	// Reserve and execute per group, gang-style over the chosen offers.
	for _, idx := range order {
		ga := &assigns[idx]
		offers := ga.offers
		next := func() *trading.Offer {
			if len(offers) == 0 {
				return nil
			}
			o := offers[0]
			offers = offers[1:]
			return o
		}
		if g.negotiate(app, ga.tasks, next, true, "") < len(ga.tasks) {
			return // partial placements remain running; rest retried later
		}
	}
}

// ClusterSummary is the aggregate the GRM exports to the inter-cluster
// hierarchy.
type ClusterSummary struct {
	ClusterID string
	Nodes     int
	FreeMIPS  float64
	// MaxNodeFreeMIPS is the largest single-node free CPU — the biggest
	// allocation one process could get (admission checks need it: aggregate
	// free capacity says nothing about placing one large process).
	MaxNodeFreeMIPS float64
	TotalMIPS       float64
	PendingTasks    int
}

// Summary computes the cluster's current aggregate state in one walk of the
// trader's node offers.
func (g *GRM) Summary() ClusterSummary {
	s := ClusterSummary{ClusterID: g.clusterID}
	g.trader.VisitMatchSet([]string{""}, func(o *trading.Offer, _ uint64) {
		s.Nodes++
		free := numProp(o, fieldMIPSFree)
		s.FreeMIPS += free
		s.MaxNodeFreeMIPS = max(s.MaxNodeFreeMIPS, free)
		s.TotalMIPS += numProp(o, fieldMIPSTotal)
	})
	g.mu.Lock()
	for _, app := range g.apps {
		s.PendingTasks += len(app.pendingTasks())
	}
	g.mu.Unlock()
	return s
}

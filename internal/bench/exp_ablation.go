package bench

import (
	"fmt"
	"time"

	"integrade/internal/asct"
	"integrade/internal/core"
	"integrade/internal/grm"
	"integrade/internal/resource"
)

// Ablations probe the design choices DESIGN.md calls out: the
// hint-plus-negotiation split (A1), the bounded candidate walk (A2) and the
// failure detector's threshold (A3). They are not paper claims; they explain
// *why* the architecture is shaped the way it is.

// AblationUpdatePeriod (A1) sweeps the Information Update Protocol cadence
// under a workload that keeps changing node state: the staler the hint, the
// more negotiation repairs it.
func AblationUpdatePeriod(seed int64) Table {
	t := Table{
		ID:      "A1",
		Title:   "Ablation: information-update period vs hint quality (30 nodes, rolling submissions)",
		Columns: []string{"update_period", "placed", "rounds_per_placement", "refusal_%"},
	}
	for _, period := range []time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute, 10 * time.Minute} {
		g := core.NewGrid(core.WithSeed(seed))
		c, err := g.AddCluster("c",
			core.WithPolicy(grm.BestFit{}),
			core.WithUpdatePeriod(period),
			core.WithSchedulePeriod(30*time.Second))
		if err != nil {
			g.Stop()
			continue
		}
		if _, err := c.AddNodes(core.DedicatedNodes(30, 1000)); err != nil {
			g.Stop()
			continue
		}
		// Rolling submissions: 40 ten-minute jobs, one per simulated
		// minute, so free capacity keeps moving while offers lag behind.
		for j := 0; j < 40; j++ {
			_, _ = g.SubmitTo("c", asct.NewApplication(fmt.Sprintf("j%d", j)).
				Sequential(600*800).
				Allocate(resource.Vector{MIPS: 800, RAMMB: 64}))
			_ = g.Advance(time.Minute)
		}
		_ = g.Advance(30 * time.Minute)
		stats := c.GRM().Stats()
		perPlacement := 0.0
		if stats.TasksPlaced > 0 {
			perPlacement = float64(stats.NegotiationRounds) / float64(stats.TasksPlaced)
		}
		refusalPct := 0.0
		if stats.NegotiationRounds > 0 {
			refusalPct = 100 * float64(stats.Refusals) / float64(stats.NegotiationRounds)
		}
		t.AddRow(period.String(), stats.TasksPlaced, perPlacement, refusalPct)
		g.Stop()
	}
	t.Notes = append(t.Notes,
		"staler hints cost extra negotiation rounds but placements still land: negotiation is the correctness mechanism, updates are only an optimization")
	return t
}

// AblationMaxAttempts (A2) sweeps the candidate-walk budget on a loaded
// cluster with stale hints: too small a budget abandons placeable tasks.
func AblationMaxAttempts(seed int64) Table {
	t := Table{
		ID:      "A2",
		Title:   "Ablation: negotiation attempt budget at 75% hidden load (50 nodes, 20 submissions)",
		Columns: []string{"max_attempts", "placed_immediately", "rounds_total"},
	}
	for _, attempts := range []int{1, 2, 4, 8, 16} {
		g := core.NewGrid(core.WithSeed(seed))
		c, err := g.AddCluster("c",
			core.WithPolicy(grm.Random{}),
			withMaxAttempts(attempts))
		if err != nil {
			g.Stop()
			continue
		}
		if _, err := c.AddNodes(core.DedicatedNodes(50, 1000)); err != nil {
			g.Stop()
			continue
		}
		// Hide 75% of capacity from the trader.
		nodes := c.Nodes()
		now := g.Now()
		for i := 0; i < len(nodes)*3/4; i++ {
			led := nodes[i].Ledger()
			if res, err := led.Reserve(led.Capacity(), "external", now, now.Add(24*time.Hour)); err == nil {
				_ = led.Commit(res.ID, now)
			}
		}
		for j := 0; j < 20; j++ {
			_, _ = g.SubmitTo("c", asct.NewApplication(fmt.Sprintf("j%d", j)).
				Sequential(60_000).
				Allocate(resource.Vector{MIPS: 800, RAMMB: 64}))
		}
		stats := c.GRM().Stats()
		t.AddRow(attempts, stats.TasksPlaced, stats.NegotiationRounds)
		g.Stop()
	}
	t.Notes = append(t.Notes,
		"a 1-attempt budget behaves like trusting the hint blindly and strands placeable work; ~8 attempts recovers nearly everything at bounded cost")
	return t
}

// withMaxAttempts adapts grm.WithMaxAttempts into a core.ClusterOption.
func withMaxAttempts(n int) core.ClusterOption {
	return core.WithGRMOptions(grm.WithMaxAttempts(n))
}

// AblationSuspectAfter (A3) kills half the cluster silently and sweeps the
// failure detector's threshold, the one rule that takes a silent node's offer
// (adaptive, then fixed with grm.WithSuspectAfter): long thresholds leave
// ghost offers that waste negotiation rounds on dead nodes.
func AblationSuspectAfter(seed int64) Table {
	t := Table{
		ID:      "A3",
		Title:   "Ablation: failure detector threshold with 25 of 50 nodes dead and silent (submissions 5 min after the crash)",
		Columns: []string{"suspect_after", "live_offers_at_submit", "placed", "rounds_total", "refusal_%"},
	}
	for _, after := range []time.Duration{0, 30 * time.Second, 90 * time.Second, 5 * time.Minute, time.Hour} {
		g := core.NewGrid(core.WithSeed(seed))
		c, err := g.AddCluster("c",
			core.WithPolicy(grm.Random{}),
			core.WithGRMOptions(grm.WithSuspectAfter(after)))
		if err != nil {
			g.Stop()
			continue
		}
		if _, err := c.AddNodes(core.DedicatedNodes(50, 1000)); err != nil {
			g.Stop()
			continue
		}
		// Kill half the fleet: LRMs stop updating AND their nodes go down,
		// so reservations against them are refused.
		lrms := c.LRMs()
		nodes := c.Nodes()
		for i := 0; i < 25; i++ {
			lrms[i].Stop()
			nodes[i].Fail(g.Now(), 24*time.Hour)
		}
		_ = g.Advance(5 * time.Minute)
		live := c.GRM().KnownNodes()
		for j := 0; j < 20; j++ {
			_, _ = g.SubmitTo("c", asct.NewApplication(fmt.Sprintf("j%d", j)).
				Sequential(60_000).
				Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
		}
		stats := c.GRM().Stats()
		refusalPct := 0.0
		if stats.NegotiationRounds > 0 {
			refusalPct = 100 * float64(stats.Refusals) / float64(stats.NegotiationRounds)
		}
		label := after.String()
		if after == 0 {
			label = "adaptive"
		}
		t.AddRow(label, live, stats.TasksPlaced, stats.NegotiationRounds, refusalPct)
		g.Stop()
	}
	t.Notes = append(t.Notes,
		"thresholds shorter than the submissions' delay withdraw the dead nodes' offers before they arrive; ghost offers under longer ones burn rounds on refusals/transport errors")
	return t
}

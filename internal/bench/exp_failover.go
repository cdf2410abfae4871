package bench

import (
	"fmt"
	"time"

	"integrade/internal/asct"
	"integrade/internal/core"
	"integrade/internal/grm"
	"integrade/internal/resource"
)

// E13 fleet and workload: a dedicated fleet running a three-wave bag of
// tasks, with the cluster manager crashed mid-second-wave. At the crash one
// wave is complete, one is in flight on the nodes, and one is still pending
// — so the recovery modes separate cleanly: pending work needs a live
// manager, in-flight work needs the nodes, and completed work must never be
// repeated.
const (
	e13Nodes    = 8
	e13MIPS     = 1000.0
	e13Tasks    = 3 * e13Nodes
	e13TaskWork = 30 * 60 * e13MIPS // 30 minutes per task at full allocation
	e13CrashAt  = 35 * time.Minute  // wave 1 done, wave 2 five minutes in
	e13Horizon  = 4 * time.Hour
	e13Probe    = 5 * time.Second // recovery-time measurement granularity
)

var e13Alloc = resource.Vector{MIPS: e13MIPS, RAMMB: 64}

// Exp13Failover measures cluster self-healing after the GRM — the paper's
// acknowledged single point of failure per cluster — fails. Three recovery
// modes run the identical workload against two fault shapes:
//
//   - none: the cluster stays headless. In-flight tasks still finish (they
//     live on the nodes), but pending work is stranded forever.
//   - cold: a watchdog rebuilds an empty manager after the detection
//     threshold. LRMs re-register through Naming, the reconcile exchange
//     cancels the dead manager's in-flight tasks (their progress is lost),
//     and the unfinished remainder is resubmitted.
//   - quorum: a three-member consensus replica set. The election timeout is
//     the detector, replication is quorum-acknowledged, and every manager
//     write carries a fencing epoch the LRMs enforce. Replicated state covers
//     every task, so nothing is reaped and nothing is repeated.
//
// The kill fault is a clean crash: the manager process dies. The partition
// fault is the nastier one — the manager stays alive but loses its control
// links (election peers, or inbound traffic), so a second primary can arise
// while the first is still issuing writes. dual_writes counts task
// placements the deposed manager got the fleet to accept after the fault,
// which the quorum mode's fencing must drive to zero.
//
// time-to-recover is the span from the fault until the cluster again has an
// active manager that knows the whole fleet. Completed work is counted on
// the node side (LRM counters), which survives any manager death.
func Exp13Failover(seed int64) Table {
	t := Table{
		ID:    "E13",
		Title: "GRM failover: time-to-recover and lost work vs. detection threshold",
		Columns: []string{"mode", "fault", "detect_s", "recover_s", "tasks_done",
			"completion_pct", "inflight_lost", "dual_writes", "reregs", "makespan_min"},
	}
	runFailoverMode(&t, seed, "none", "kill", 0)
	for _, detect := range []time.Duration{30 * time.Second, 60 * time.Second, 120 * time.Second} {
		runFailoverMode(&t, seed, "cold", "kill", detect)
	}
	runFailoverMode(&t, seed, "quorum", "kill", 0)
	runFailoverMode(&t, seed, "none", "partition", 0)
	runFailoverMode(&t, seed, "cold", "partition", 60*time.Second)
	runFailoverMode(&t, seed, "quorum", "partition", 0)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d dedicated %.0f-MIPS machines, %d tasks of 30min each; manager fails at %v with one wave done, one in flight, one pending",
			e13Nodes, e13MIPS, e13Tasks, e13CrashAt),
		"tasks_done counts node-side completions, which survive the manager; inflight_lost counts running tasks reaped by the reconcile exchange",
		"dual_writes counts placements the failed manager made after the fault; under partition the quorum set's fencing rejects every one",
		"quorum detect_s is '-': the election timeout replaces the configured threshold",
		"'-' means the cluster never recovered (no-failover, or a split-brain survivor the fleet cannot reach) or the bag missed the horizon",
	)
	return t
}

func runFailoverMode(t *Table, seed int64, mode, fault string, detect time.Duration) {
	g := core.NewGrid(core.WithSeed(seed))
	defer g.Stop()
	opts := []core.ClusterOption{
		core.WithSchedulePeriod(30 * time.Second),
		core.WithUpdatePeriod(15 * time.Second),
	}
	if detect > 0 {
		opts = append(opts, core.WithGRMOptions(grm.WithSuspectAfter(detect)))
	}
	if mode == "quorum" {
		// Keep the successor's failure detector quiet across the election
		// window: the LRMs take up to a minute to re-register with it.
		opts = append(opts, core.WithGRMOptions(
			grm.WithSuspectAfter(2*time.Minute),
			grm.WithOfferTTL(5*time.Minute)))
	}
	c, err := g.AddCluster("fleet", opts...)
	if err != nil {
		return
	}
	if _, err := c.AddNodes(core.DedicatedNodes(e13Nodes, e13MIPS)); err != nil {
		return
	}
	engine := g.EnableChaos(seed)
	if mode == "quorum" {
		if err := c.EnableReplicaSet(2); err != nil {
			return
		}
	}
	if _, err = g.SubmitTo("fleet", asct.NewApplication("bag").
		Parametric(e13Tasks, e13TaskWork).
		Allocate(e13Alloc)); err != nil {
		return
	}
	if err := g.Advance(e13CrashAt); err != nil {
		return
	}

	failed := c.GRM()
	placedAtFault := failed.Stats().TasksPlaced
	switch fault {
	case "kill":
		if err := g.CrashGRM("fleet"); err != nil {
			return
		}
	case "partition":
		switch mode {
		case "quorum":
			// Sever the leader's consensus links both ways; its data-plane
			// path to the LRMs stays open, so only fencing protects the fleet.
			lead := c.ManagerEndpoint()
			for _, ep := range c.ReplicaEndpoints() {
				if ep != lead {
					engine.IsolateDirected(lead, ep)
					engine.IsolateDirected(ep, lead)
				}
			}
		default:
			// Isolate the manager's inbound side: updates and submissions
			// fail, but the manager itself keeps running and sending.
			engine.Isolate(c.ManagerEndpoint())
		}
	}
	if mode == "cold" {
		// Watchdog: wait out the detection threshold, then rebuild from
		// nothing (which also stops the partitioned incarnation).
		if err := g.Advance(detect); err != nil {
			return
		}
		if err := g.RestartGRM("fleet"); err != nil {
			return
		}
	}

	// Probe until the cluster has a live manager that knows the fleet.
	recover := time.Duration(-1)
	if mode != "none" {
		for elapsed := time.Duration(0); elapsed <= 15*time.Minute; elapsed += e13Probe {
			mgr := c.GRM()
			if mgr != failed && mgr.Role() == grm.RolePrimary && mgr.KnownNodes() == e13Nodes {
				recover = elapsed
				break
			}
			if err := g.Advance(e13Probe); err != nil {
				return
			}
		}
		if mode == "cold" && recover >= 0 {
			recover += detect // the watchdog's detection time counts too
		}
	}
	if mode == "cold" && recover >= 0 {
		// The rebuilt manager knows nothing of the bag: resubmit whatever the
		// nodes have not finished (the ASCT's crash-retry path). The reaped
		// in-flight tasks are part of the remainder and run again from zero.
		remaining := e13Tasks - lrmCompleted(c)
		if remaining > 0 {
			if _, err := g.SubmitTo("fleet", asct.NewApplication("bag-retry").
				Parametric(remaining, e13TaskWork).
				Allocate(e13Alloc)); err != nil {
				return
			}
		}
	}

	// Drive to the horizon, recording when the whole bag is done node-side.
	makespan := time.Duration(-1)
	for elapsed := time.Duration(0); elapsed <= e13Horizon; elapsed += time.Minute {
		if lrmCompleted(c) >= e13Tasks {
			makespan = e13CrashAt + elapsed
			break
		}
		if err := g.Advance(time.Minute); err != nil {
			return
		}
	}

	done, orphans, reregs := lrmCompleted(c), 0, 0
	for _, l := range c.LRMs() {
		st := l.Stats()
		orphans += st.OrphansCancelled
		reregs += st.Reregistrations
	}
	rec, ms := "-", "-"
	if recover >= 0 {
		rec = formatFloat(recover.Seconds())
	}
	if makespan >= 0 {
		ms = formatFloat(makespan.Minutes())
	}
	det := "-"
	if detect > 0 {
		det = formatFloat(detect.Seconds())
	}
	dual := "-"
	if mode != "none" {
		// Placements the failed manager still got accepted after the fault:
		// zero for a clean kill, and — with fencing — zero under partition.
		dual = fmt.Sprint(failed.Stats().TasksPlaced - placedAtFault)
	}
	t.AddRow(mode, fault, det, rec, done, formatFloat(100*float64(done)/e13Tasks),
		orphans, dual, reregs, ms)
}

// lrmCompleted sums node-side task completions — the ground truth that
// survives any number of manager deaths.
func lrmCompleted(c *core.Cluster) int {
	done := 0
	for _, l := range c.LRMs() {
		done += l.Stats().TasksCompleted
	}
	return done
}

package grm

import (
	"sort"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// Role distinguishes an active cluster manager from a warm standby.
type Role int

// GRM roles.
const (
	// RolePrimary is the active manager: it schedules, detects node
	// failures, and (when a standby is attached) streams its state out.
	RolePrimary Role = iota
	// RoleStandby is a passive mirror: it applies the primary's replication
	// batches, monitors the primary's heartbeat, and promotes itself when
	// the stream goes silent.
	RoleStandby
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleStandby {
		return "standby"
	}
	return "primary"
}

// StandbyConfig tunes a standby GRM's promotion monitor.
type StandbyConfig struct {
	// OnPromote is called (outside all GRM locks) after the standby takes
	// over as primary. The grid uses it to swap cluster references, rebind
	// Naming and re-parent the hierarchy link.
	OnPromote func()
	// CheckEvery is the monitor cadence (default: DefaultReplicationInterval).
	CheckEvery time.Duration
}

// Role returns the GRM's current role.
func (g *GRM) Role() Role {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role
}

// ReplicationStats returns the primary-side replication counters (zero when
// no standby is attached).
func (g *GRM) ReplicationStats() ReplStats {
	g.mu.Lock()
	repl := g.repl
	g.mu.Unlock()
	if repl == nil {
		return ReplStats{}
	}
	return repl.statsSnapshot()
}

// AttachStandby starts streaming this GRM's state to the standby servant at
// ref: a full snapshot is enqueued immediately and the periodic pump then
// ships coalesced deltas (and heartbeats) every interval. Attaching replaces
// any previous standby target.
func (g *GRM) AttachStandby(ref orb.ObjectRef) {
	repl := newReplicator(g, ref, g.replEvery)
	g.mu.Lock()
	if g.stopped && g.started {
		g.mu.Unlock()
		return
	}
	old := g.repl
	g.repl = repl
	// Full-state snapshot: every live node's last status and every app.
	for _, id := range sortedNodeIDsLocked(g.nodes) {
		lv := g.nodes[id]
		if lv.updates > 0 {
			repl.enqueueNode(lv.status)
		}
	}
	for _, id := range sortedAppIDsLocked(g.apps) {
		repl.enqueueApp(buildAppRecordLocked(g.apps[id]))
	}
	repl.setSeq(g.seq)
	g.replicateSchedLocked()
	g.mu.Unlock()
	if old != nil {
		old.stop()
	}
	repl.start()
}

// BecomeStandby turns a fresh, un-started GRM into a warm standby: it
// applies replication batches from the primary and arms a promotion monitor
// that declares the primary dead with the same adaptive heartbeat threshold
// the node failure detector uses — three missed batches at the observed
// cadence, floored at the offer TTL, or the fixed WithSuspectAfter value.
// At least two batches must have been observed before the primary can be
// suspected, so a standby that never heard from its primary stays passive
// (the cold-rebuild path covers that case).
func (g *GRM) BecomeStandby(cfg StandbyConfig) {
	check := cfg.CheckEvery
	if check <= 0 {
		check = DefaultReplicationInterval
	}
	g.mu.Lock()
	g.role = RoleStandby
	g.promoting = false
	g.onPromote = cfg.OnPromote
	g.mu.Unlock()

	var arm func()
	arm = func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.stopped || g.role != RoleStandby {
			return
		}
		t := g.clock.AfterFunc(check, func() {
			g.checkPrimary()
			arm()
		})
		g.timers = append(g.timers, t)
	}
	arm()
}

// checkPrimary is one promotion-monitor tick. Under consensus management the
// monitor stands down: failover is the election's job, and a silence-based
// unilateral promotion is exactly the split-brain the election exists to
// prevent.
func (g *GRM) checkPrimary() {
	now := g.clock.Now()
	g.mu.Lock()
	if g.role != RoleStandby || g.elect != nil || g.replBatches < 2 {
		g.mu.Unlock()
		return
	}
	threshold := g.suspectAfter
	if threshold <= 0 {
		threshold = 3 * g.replGap
		if threshold < g.offerTTL {
			threshold = g.offerTTL
		}
	}
	silent := now.Sub(g.replLastBatch)
	g.mu.Unlock()
	if silent > threshold {
		g.log.Info("primary GRM silent, promoting standby",
			"cluster", g.clusterID, "silent", silent, "threshold", threshold)
		g.Promote()
	}
}

// Promote turns the standby into the active primary: the scheduler starts,
// and the OnPromote callback fires outside all locks. Idempotent; a no-op on
// a GRM that is already primary. The promoting latch makes the transition
// single-flight: a manual core.PromoteGRM racing the silence monitor's own
// Promote must not fire OnPromote (which swaps cluster references) twice.
func (g *GRM) Promote() {
	now := g.clock.Now()
	g.mu.Lock()
	if g.role != RoleStandby || g.stopped || g.promoting {
		g.mu.Unlock()
		return
	}
	g.promoting = true
	g.role = RolePrimary
	g.stats.Promotions++
	// Grace period: the standby's liveness view dates from the last replica
	// batch — roughly the primary's death — so without a reset the first
	// failure-detector pass would declare every node dead before its LRM has
	// had a chance to re-register. Genuinely dead nodes still time out,
	// measured from promotion.
	for _, lv := range g.nodes {
		lv.lastSeen = now
	}
	onPromote := g.onPromote
	g.onPromote = nil
	g.mu.Unlock()

	g.Start()
	if onPromote != nil {
		onPromote()
	}
}

// HandleReplica applies one direct (OpReplicate) replication batch. Batches
// are ignored unless this GRM is a standby for the sending cluster — in
// particular, a deposed primary that keeps streaming after the standby
// promoted itself cannot corrupt the new primary's state. The sender's epoch
// is enforced: a batch fenced below the newest epoch this replica has seen
// is dropped.
func (g *GRM) HandleReplica(b replicaBatch) {
	g.applyReplica(b, true)
}

// applyReplica applies one replication batch. enforceEpoch distinguishes the
// direct OpReplicate path (stale-epoch batches rejected) from entries already
// ordered by the consensus log, where the leader that proposed them held the
// epoch by construction and re-checking would only race FollowAt.
func (g *GRM) applyReplica(b replicaBatch, enforceEpoch bool) {
	now := g.clock.Now()
	g.mu.Lock()
	if g.role != RoleStandby || g.stopped || b.ClusterID != g.clusterID {
		g.mu.Unlock()
		return
	}
	if enforceEpoch && b.Epoch != 0 {
		if b.Epoch < g.epoch {
			g.stats.StaleBatchesRejected++
			g.mu.Unlock()
			return
		}
		if b.Epoch > g.epoch {
			g.epoch = b.Epoch
		}
	}
	if g.replBatches > 0 {
		if gap := now.Sub(g.replLastBatch); gap > 0 {
			g.replGap = gap
		}
	}
	g.replLastBatch = now
	g.replBatches++
	g.stats.ReplicaBatches++
	if b.Seq > g.seq {
		g.seq = b.Seq
	}
	for _, rec := range b.Apps {
		g.apps[rec.ID] = appFromRecord(rec)
	}
	if b.Sched != nil {
		// Rebuild the admission queue after the apps above, so every queued
		// ID resolves; unknown IDs (app record lost to coalescing) are
		// dropped — SchedulePending re-covers them from g.apps anyway.
		g.admitQ = g.admitQ[:0]
		for _, id := range b.Sched.QueuedIDs {
			if app, ok := g.apps[id]; ok {
				g.admitQ = append(g.admitQ, app)
			}
		}
		g.stats.AdmissionQueued = b.Sched.Accepted
		g.stats.AdmissionRejected = b.Sched.Rejected
		g.stats.AdmissionPeakDepth = b.Sched.Peak
		g.stats.SchedulerBatches = b.Sched.Batches
		g.stats.MaxBatchSize = b.Sched.MaxBatch
		g.stats.AdmissionQueueDepth = len(g.admitQ)
	}
	for _, gone := range b.NodesGone {
		delete(g.nodes, gone.NodeID)
	}
	g.mu.Unlock()

	for i := range b.Nodes {
		g.applyReplicaStatus(&b.Nodes[i])
	}
	for _, gone := range b.NodesGone {
		g.trader.WithdrawRef(NodeStatusType, gone.Ref)
	}
}

// applyReplicaStatus mirrors one node's status into the standby's liveness
// table and trader without touching the primary-side update counters.
func (g *GRM) applyReplicaStatus(s *protocol.NodeStatus) {
	now := g.clock.Now()
	g.mu.Lock()
	g.touchLivenessLocked(s, now)
	epoch := g.epoch
	g.mu.Unlock()
	g.exportStatusOffer(s, now, epoch)
}

// Reconcile answers an LRM's post-registration task report: any claimed task
// this GRM does not know as running on that node is an orphan the LRM must
// cancel. After a warm failover the replicated state covers every claim;
// after a cold rebuild the dead manager's placeholder tasks are reaped here,
// freeing their node capacity for fresh placements.
func (g *GRM) Reconcile(req protocol.ReconcileRequest) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var orphans []string
	for _, claim := range req.Claims {
		known := false
		if app, ok := g.apps[claim.AppID]; ok {
			for _, t := range app.tasks {
				if t.id == claim.TaskID && t.state == protocol.TaskRunning && t.nodeID == req.NodeID {
					known = true
					break
				}
			}
		}
		if !known {
			orphans = append(orphans, claim.TaskID)
			g.stats.TasksReconciled++
		}
	}
	return orphans
}

// buildAppRecordLocked snapshots an app for replication. Caller holds g.mu.
func buildAppRecordLocked(app *appInfo) appRecord {
	rec := appRecord{
		ID:           app.id,
		Spec:         app.spec,
		Submitted:    app.submitted,
		Finished:     app.finished,
		Negotiations: app.negotiations,
	}
	for _, t := range app.tasks {
		rec.Tasks = append(rec.Tasks, taskRecord{
			ID:              t.id,
			State:           t.state,
			NodeID:          t.nodeID,
			LRM:             t.lrm,
			Progress:        t.progress,
			Work:            t.work,
			Restarts:        t.restarts,
			InitialProgress: t.initialProgress,
		})
	}
	return rec
}

// appFromRecord rebuilds the GRM-side app state from a replica record.
func appFromRecord(rec appRecord) *appInfo {
	app := &appInfo{
		id:           rec.ID,
		spec:         rec.Spec,
		constraint:   buildConstraint(rec.Spec),
		submitted:    rec.Submitted,
		finished:     rec.Finished,
		negotiations: rec.Negotiations,
	}
	for _, t := range rec.Tasks {
		app.tasks = append(app.tasks, &taskInfo{
			id:              t.ID,
			state:           t.State,
			nodeID:          t.NodeID,
			lrm:             t.LRM,
			progress:        t.Progress,
			work:            t.Work,
			restarts:        t.Restarts,
			initialProgress: t.InitialProgress,
		})
	}
	return app
}

// replicateAppLocked forwards an app's current state to the standby, if one
// is attached. Caller holds g.mu; the enqueue never blocks (lock order
// g.mu → repl.mu).
func (g *GRM) replicateAppLocked(app *appInfo) {
	if g.repl != nil {
		g.repl.enqueueApp(buildAppRecordLocked(app))
		g.repl.setSeq(g.seq)
	}
}

// replicateSchedLocked forwards the admission-queue snapshot and counters to
// the standby, if one is attached. Caller holds g.mu; the enqueue never
// blocks (lock order g.mu → repl.mu).
func (g *GRM) replicateSchedLocked() {
	if g.repl == nil {
		return
	}
	rec := schedRecord{
		QueuedIDs: make([]string, len(g.admitQ)),
		Accepted:  g.stats.AdmissionQueued,
		Rejected:  g.stats.AdmissionRejected,
		Peak:      g.stats.AdmissionPeakDepth,
		Batches:   g.stats.SchedulerBatches,
		MaxBatch:  g.stats.MaxBatchSize,
	}
	for i, app := range g.admitQ {
		rec.QueuedIDs[i] = app.id
	}
	g.repl.enqueueSched(rec)
}

// sortedNodeIDsLocked returns the node IDs sorted. Caller holds g.mu.
func sortedNodeIDsLocked(nodes map[string]*nodeLiveness) []string {
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// sortedAppIDsLocked returns the app IDs sorted. Caller holds g.mu.
func sortedAppIDsLocked(apps map[string]*appInfo) []string {
	ids := make([]string, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

package grm

import (
	"cmp"
	"math"
	"slices"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/trading"
)

// The transitions in this file are the only writers of the GRM's cluster
// state: the node records, the applications and their tasks, and the
// admission queue. The leader's handlers and a follower applying the log call
// the same ones. Each enqueues what it changed for the next replica batch when
// this GRM leads a replica set, and none does I/O: a trader export or
// withdraw, or a Cancel RPC, is returned for the caller to carry out once
// g.mu is released. Every transition's caller holds g.mu.

// entityKind is what an entity is; a replica batch carries each kind in a
// section of its own.
type entityKind uint8

const (
	entityNode entityKind = iota
	entityApp
	entityQueue
)

// entity names one replicated piece of GRM state: a node or an application
// by ID, or the admission queue.
type entity struct {
	kind entityKind
	id   string
}

var queueEntity = entity{kind: entityQueue}

// remote is a task and the LRM reference that serves it: what a transition
// hands back for a Cancel outside g.mu.
type remote struct {
	id  string
	ref orb.ObjectRef
}

// deadNode is a node the failure detector dropped and the place of its offer:
// what its verdict hands back for the withdraw outside g.mu.
type deadNode struct {
	id    string
	place trading.Place
}

// markLocked enqueues e for the next replica batch, if this GRM leads a
// replica set. The enqueue never blocks (lock order g.mu → repl.mu).
func (g *GRM) markLocked(e entity) {
	if g.repl != nil {
		g.repl.mark(e)
	}
}

// recordStatusLocked records a node's latest status, the windows that came
// with it and its heartbeat, and ends a departure whose deadline has passed.
// The windows are copied into the record's own array, which is reused across
// updates and grows only when the node reports more than it ever has; it is
// rewritten in place, so it is read only under g.mu. It returns the place the
// node's offer is to be upserted through (zero: none, so by reference) and
// whether it is to be exported: not while the node is departing, since
// re-exporting would hand it fresh work right before the predicted owner
// arrival. A status from a new reference takes the old reference's place out
// of the record and returns it as moved, for the caller to withdraw: that
// offer names an LRM the node no longer reports from.
func (g *GRM) recordStatusLocked(s *protocol.NodeStatus, windows []protocol.AvailWindow, now time.Time) (place, moved trading.Place, export bool) {
	lv := g.nodes[s.NodeID]
	if lv == nil {
		lv = &nodeLiveness{}
		g.nodes[s.NodeID] = lv
	} else if gap := now.Sub(lv.lastSeen); gap > 0 {
		lv.interval = gap
	}
	if s.LRMRef != lv.status.LRMRef {
		moved, lv.place = lv.place, trading.Place{}
	}
	lv.lastSeen = now
	lv.updates++
	own := lv.status.Windows
	lv.status = *s
	lv.status.Windows = append(own[:0], windows...)
	if !lv.departUntil.IsZero() && !now.Before(lv.departUntil) {
		lv.departUntil = time.Time{}
	}
	g.markLocked(entity{entityNode, s.NodeID})
	return lv.place, moved, lv.departUntil.IsZero()
}

// departLocked marks a known node departing until the deadline (a zero
// deadline: not departing) and, when it departs, takes the place of its offer
// out of its record, for the caller to withdraw.
func (g *GRM) departLocked(id string, until time.Time) (place trading.Place, known bool) {
	lv := g.nodes[id]
	if lv == nil {
		return trading.Place{}, false
	}
	lv.departUntil = until
	if !until.IsZero() {
		place, lv.place = lv.place, trading.Place{}
	}
	g.markLocked(entity{entityNode, id})
	return place, true
}

// dropNodeLocked forgets a node declared dead and returns the place of its
// offer, for the caller to withdraw; a restarted node re-registers on its next
// update.
func (g *GRM) dropNodeLocked(id string) trading.Place {
	place := g.nodes[id].place
	delete(g.nodes, id)
	g.markLocked(entity{entityNode, id})
	return place
}

// graceLocked restarts every node's silence at now.
func (g *GRM) graceLocked(now time.Time) {
	for _, lv := range g.nodes {
		lv.lastSeen = now
	}
}

// mirrorNodeLocked applies a node record from the log through the node
// transitions above and returns the trader effect: the status whose offer to
// export and the place to export it through, and the place of an offer to
// withdraw (zero: none).
func (g *GRM) mirrorNodeLocked(n nodeEntry, now time.Time) (export *protocol.NodeStatus, place, withdraw trading.Place) {
	if n.lv == nil {
		if _, known := g.nodes[n.id]; !known {
			return nil, trading.Place{}, trading.Place{}
		}
		return nil, trading.Place{}, g.dropNodeLocked(n.id)
	}
	s := &n.lv.status
	place, moved, _ := g.recordStatusLocked(s, s.Windows, now)
	taken, _ := g.departLocked(s.NodeID, n.lv.departUntil)
	if n.lv.departUntil.IsZero() {
		return s, place, moved
	}
	return nil, trading.Place{}, cmp.Or(moved, taken)
}

// putAppLocked records an application: a new submission, or a follower's copy
// of the leader's.
func (g *GRM) putAppLocked(app *appInfo) {
	g.apps[app.id] = app
	g.markLocked(entity{entityApp, app.id})
}

// negotiatedLocked counts one Reserve issued for app.
func (g *GRM) negotiatedLocked(app *appInfo) {
	app.negotiations++
	g.markLocked(entity{entityApp, app.id})
}

// placeLocked records the tasks of gr as running on its node.
func (g *GRM) placeLocked(app *appInfo, gr nodeGrant) {
	for _, t := range gr.tasks {
		t.state = protocol.TaskRunning
		t.nodeID = gr.nodeID
		t.lrm = gr.ref
		t.progress = t.initialProgress
	}
	g.stats.TasksPlaced += len(gr.tasks)
	g.markLocked(entity{entityApp, app.id})
}

// progressLocked records how far a task has run.
func (g *GRM) progressLocked(app *appInfo, t *taskInfo, progress float64) {
	t.progress = progress
	g.markLocked(entity{entityApp, app.id})
}

// finishLocked records a task done, and the application finished at at once
// every task is. It reports false for a task already done: completions are
// delivered at least once, and this one was applied before.
func (g *GRM) finishLocked(app *appInfo, t *taskInfo, at time.Time) bool {
	if t.state == protocol.TaskDone {
		return false
	}
	t.state = protocol.TaskDone
	t.progress = t.work
	g.stats.TasksDone++
	if !slices.ContainsFunc(app.tasks, func(t *taskInfo) bool { return t.state != protocol.TaskDone }) {
		app.finished = at
	}
	g.markLocked(entity{entityApp, app.id})
	return true
}

// checkpointBoundary is the last checkpoint at or below progress: where a
// task rolled back resumes (0 when the application does not checkpoint).
func checkpointBoundary(spec protocol.ApplicationSpec, progress float64) float64 {
	if spec.CheckpointEveryWork <= 0 {
		return 0
	}
	return float64(int(progress/spec.CheckpointEveryWork)) * spec.CheckpointEveryWork
}

// gangCheckpoint is the lowest checkpoint boundary among app's running tasks:
// where a BSP gang, which restarts together, resumes.
func gangCheckpoint(app *appInfo) float64 {
	ckpt := math.Inf(1)
	for _, t := range app.tasks {
		if t.state == protocol.TaskRunning {
			ckpt = min(ckpt, checkpointBoundary(app.spec, t.progress))
		}
	}
	return ckpt
}

// rollBackLocked returns a task to pending at the checkpoint ckpt: the work
// past it is lost, and the task restarts.
func (g *GRM) rollBackLocked(app *appInfo, t *taskInfo, ckpt float64) {
	g.stats.WorkLostMI += t.progress - ckpt
	g.stats.Restarts++
	g.requeueLocked(app, t, ckpt)
}

// requeueLocked returns a task to pending, to resume from resume when next
// placed.
func (g *GRM) requeueLocked(app *appInfo, t *taskInfo, resume float64) {
	t.initialProgress = resume
	t.state = protocol.TaskPending
	t.restarts++
	g.markLocked(entity{entityApp, app.id})
}

// abandonLocked gives up on an evicted task the application does not want
// restarted: all its progress is lost.
func (g *GRM) abandonLocked(app *appInfo, t *taskInfo) {
	g.stats.WorkLostMI += t.progress
	t.state = protocol.TaskEvicted
	g.markLocked(entity{entityApp, app.id})
}

// cancelLocked cancels an application's running and pending tasks, and
// returns the running ones for the caller to cancel on their LRMs. Completed
// tasks keep their state.
func (g *GRM) cancelLocked(app *appInfo) (running []remote) {
	for _, t := range app.tasks {
		switch t.state {
		case protocol.TaskRunning:
			running = append(running, remote{id: t.id, ref: t.lrm})
			t.state = protocol.TaskCancelled
		case protocol.TaskPending:
			t.state = protocol.TaskCancelled
		}
	}
	g.stats.AppsCancelled++
	g.markLocked(entity{entityApp, app.id})
	return running
}

// queueLocked appends a submitted application to the admission queue.
func (g *GRM) queueLocked(app *appInfo) {
	g.admitQ = append(g.admitQ, app)
	g.stats.AdmissionQueued++
	g.stats.AdmissionQueueDepth = len(g.admitQ)
	g.stats.AdmissionPeakDepth = max(g.stats.AdmissionPeakDepth, len(g.admitQ))
	g.markLocked(queueEntity)
}

// refuseLocked counts a submission the full admission queue turned away.
func (g *GRM) refuseLocked() {
	g.stats.AdmissionRejected++
	g.markLocked(queueEntity)
}

// takeBatchLocked removes up to admitBatch applications from the head of the
// admission queue and counts the batch.
func (g *GRM) takeBatchLocked() []*appInfo {
	n := min(g.admitBatch, len(g.admitQ))
	if n <= 0 {
		return nil
	}
	batch := slices.Clone(g.admitQ[:n])
	g.admitQ = slices.Delete(g.admitQ, 0, n)
	g.stats.AdmissionQueueDepth = len(g.admitQ)
	g.stats.SchedulerBatches++
	g.stats.LastBatchSize = n
	g.stats.MaxBatchSize = max(g.stats.MaxBatchSize, n)
	g.markLocked(queueEntity)
	return batch
}

// replaceQueueLocked replaces the admission queue and its counters with the
// leader's. A queued ID with no application here is dropped: SchedulePending
// finds the app's pending tasks anyway once it arrives.
func (g *GRM) replaceQueueLocked(q schedRecord) {
	g.admitQ = g.admitQ[:0]
	for _, id := range q.QueuedIDs {
		if app, ok := g.apps[id]; ok {
			g.admitQ = append(g.admitQ, app)
		}
	}
	g.stats.AdmissionQueued = q.Accepted
	g.stats.AdmissionRejected = q.Rejected
	g.stats.AdmissionPeakDepth = q.Peak
	g.stats.SchedulerBatches = q.Batches
	g.stats.MaxBatchSize = q.MaxBatch
	g.stats.AdmissionQueueDepth = len(g.admitQ)
	g.markLocked(queueEntity)
}

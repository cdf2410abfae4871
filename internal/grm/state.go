package grm

import (
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
// the same ones. Each enqueues the nodes and applications it changed for the
// next replica batch when this GRM leads a replica set (the queue stays the
// leader's own), and none does I/O: a Cancel RPC is returned for the caller to
// carry out once g.mu is released. The trader is in-process, and a transition
// that takes a node's place withdraws the node's offer through it itself, so
// that no update can export between the two. Every transition's caller holds
// g.mu.

// entityKind is what an entity is; a replica batch carries each kind in a
// section of its own.
type entityKind uint8

const (
	entityNode entityKind = iota
	entityApp
)

// entity names one replicated piece of GRM state: a node or an application
// by ID.
type entity struct {
	kind entityKind
	id   string
}

// remote is a task and the LRM reference that serves it: what a transition
// hands back for a Cancel outside g.mu.
type remote struct {
	id  string
	ref orb.ObjectRef
}

// markLocked enqueues e for the next replica batch, if this GRM leads a
// replica set.
func (g *GRM) markLocked(e entity) {
	if g.repl != nil {
		g.pending[e] = struct{}{}
	}
}

// recordStatusLocked records a node's latest status and its heartbeat into
// lv, the node's record (nil: a new one), and returns the record. A prompted
// status, one the LRM sent outside its cadence, is recorded but is no
// heartbeat: the record's last sighting, interval and update count stay as
// they were, so the failure detector judges the node by its cadence alone. A
// prompted status from a node with no record registers it, as any first
// update does. A status announcing a deadline ahead of now that the record
// does not hold starts the node's departure, taking its place, or moves the
// deadline; an update past the deadline ends the departure. The node is
// marked for the log on a membership change only: new, or its departure
// started, moved or over. A status from a new reference withdraws the old
// reference's offer and takes its place: that offer names an LRM the node no
// longer reports from.
func (g *GRM) recordStatusLocked(lv *nodeLiveness, s *protocol.NodeStatus, now time.Time) *nodeLiveness {
	heartbeat := lv == nil || !s.Prompted
	if lv == nil {
		g.markLocked(entity{entityNode, s.NodeID})
		lv = &nodeLiveness{}
		g.nodes[s.NodeID] = lv
	} else if gap := now.Sub(lv.lastSeen); gap > 0 && heartbeat {
		lv.interval = gap
	}
	if s.LRMRef != lv.status.LRMRef {
		g.takePlacesLocked(lv)
	}
	if heartbeat {
		lv.lastSeen = now
		lv.updates++
	}
	lv.status = *s
	switch {
	case s.DepartUntil.After(now) && !s.DepartUntil.Equal(lv.departUntil):
		if !now.Before(lv.departUntil) {
			g.takePlacesLocked(lv)
			g.stats.GracefulDepartures++
		}
		lv.departUntil = s.DepartUntil
		g.markLocked(entity{entityNode, s.NodeID})
	case !lv.departUntil.IsZero() && !now.Before(lv.departUntil):
		lv.departUntil = time.Time{}
		g.markLocked(entity{entityNode, s.NodeID})
	}
	return lv
}

// takePlacesLocked withdraws the offers of the nodes whose records lvs are, in
// one trader write, and takes their places out of the records: a node's next
// export, if any, is by reference.
func (g *GRM) takePlacesLocked(lvs ...*nodeLiveness) {
	places := make([]trading.Place, len(lvs))
	for i, lv := range lvs {
		places[i], lv.place = lv.place, trading.Place{}
	}
	g.trader.Withdraw(places...)
}

// dropNodeLocked forgets a node declared dead and returns its record, whose
// place the caller takes with those of the sweep's other dead; a restarted
// node re-registers on its next update.
func (g *GRM) dropNodeLocked(id string) *nodeLiveness {
	lv := g.nodes[id]
	delete(g.nodes, id)
	g.markLocked(entity{entityNode, id})
	return lv
}

// graceLocked restarts every node's silence at now, for a new leader.
func (g *GRM) graceLocked(now time.Time) {
	for _, lv := range g.nodes {
		lv.lastSeen = now
	}
}

// memberLocked applies a node's entry from the log: its record, which holds
// its deadline, replaces the node's, or its death forgets the node.
func (g *GRM) memberLocked(n nodeEntry) {
	if n.lv == nil {
		delete(g.nodes, n.id)
	} else {
		g.nodes[n.id] = n.lv
	}
}

// putAppLocked records an application: a new submission, or a follower's copy
// of the leader's, whose seq the follower's next app ID follows.
func (g *GRM) putAppLocked(app *appInfo) {
	g.apps[app.id] = app
	g.seq = max(g.seq, app.seq)
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

// progressLocked records how far a task has run. Progress is soft state its
// LRM re-tells, so it marks nothing: the log holds that of the last transition.
func (g *GRM) progressLocked(t *taskInfo, progress float64) {
	t.progress = progress
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
}

// refuseLocked counts a submission the full admission queue turned away.
func (g *GRM) refuseLocked() {
	g.stats.AdmissionRejected++
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
	g.stats.MaxBatchSize = max(g.stats.MaxBatchSize, n)
	return batch
}

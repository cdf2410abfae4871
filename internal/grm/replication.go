package grm

import (
	"sort"
	"sync"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// DefaultReplicationInterval is the cadence at which a replica-set leader
// flushes its coalesced state changes into the consensus log. Every flush —
// even an empty one — is a log entry the quorum must acknowledge, so it
// doubles as the leader's check that it still holds a quorum.
const DefaultReplicationInterval = 5 * time.Second

// taskRecord is the replicated form of one taskInfo.
type taskRecord struct {
	ID              string
	State           protocol.TaskState
	NodeID          string
	LRM             orb.ObjectRef
	Progress        float64
	Work            float64
	Restarts        int
	InitialProgress float64
}

// appRecord is the replicated form of one appInfo: everything a follower
// needs to continue scheduling, cancelling and reporting the application.
type appRecord struct {
	ID           string
	Spec         protocol.ApplicationSpec
	Submitted    time.Time
	Finished     time.Time
	Negotiations int
	Tasks        []taskRecord
}

// replicaBatch is one consensus log entry: the coalesced state delta since
// the previous flush, plus the leader's app sequence counter so a successor
// never re-issues an app ID. It carries no epoch: the log orders entries by
// the term of the leader that proposed them.
type replicaBatch struct {
	ClusterID string
	Seq       int
	Nodes     []protocol.NodeStatus
	NodesGone []nodeGone
	Apps      []appRecord
	// Sched, when present, is the latest admission-queue snapshot; a flush
	// with nothing new to report leaves it out (bool-guarded on the wire).
	Sched *schedRecord
}

// nodeGone records a node the leader's failure detector declared dead; the
// ref lets a follower withdraw the node's trader offers.
type nodeGone struct {
	NodeID string
	Ref    orb.ObjectRef
}

// schedRecord is the replicated admission-pipeline state: the IDs still
// waiting in the admission queue plus the backpressure counters, so a
// successor resumes draining exactly where the old leader stopped
// instead of silently dropping queued-but-unplaced applications. Coalesced
// latest-wins: only the newest snapshot per flush matters.
type schedRecord struct {
	QueuedIDs []string
	Accepted  int
	Rejected  int
	Peak      int
	Batches   int
	MaxBatch  int
}

func (r schedRecord) encode(e *orb.Encoder) {
	e.PutU32(uint32(len(r.QueuedIDs)))
	for _, id := range r.QueuedIDs {
		e.PutString(id)
	}
	e.PutInt(r.Accepted)
	e.PutInt(r.Rejected)
	e.PutInt(r.Peak)
	e.PutInt(r.Batches)
	e.PutInt(r.MaxBatch)
}

func decodeSchedRecord(d *orb.Decoder) (schedRecord, error) {
	var r schedRecord
	n := d.Count(4)
	if err := d.Err(); err != nil {
		return schedRecord{}, err
	}
	for i := 0; i < n; i++ {
		r.QueuedIDs = append(r.QueuedIDs, d.String())
	}
	r.Accepted = d.Int()
	r.Rejected = d.Int()
	r.Peak = d.Int()
	r.Batches = d.Int()
	r.MaxBatch = d.Int()
	return r, d.Err()
}

func (r taskRecord) encode(e *orb.Encoder) {
	e.PutString(r.ID)
	e.PutU8(uint8(r.State))
	e.PutString(r.NodeID)
	protocol.EncodeRef(e, r.LRM)
	e.PutF64(r.Progress)
	e.PutF64(r.Work)
	e.PutInt(r.Restarts)
	e.PutF64(r.InitialProgress)
}

// taskRecordMin is the encoded size of a taskRecord whose strings are empty.
const taskRecordMin = 4 + 1 + 4 + 3*4 + 8 + 8 + 8 + 8

func decodeTaskRecord(d *orb.Decoder) taskRecord {
	r := taskRecord{
		ID:    d.String(),
		State: protocol.TaskState(d.U8()),
	}
	r.NodeID = d.String()
	r.LRM = protocol.DecodeRef(d)
	r.Progress = d.F64()
	r.Work = d.F64()
	r.Restarts = d.Int()
	r.InitialProgress = d.F64()
	return r
}

func (r appRecord) encode(e *orb.Encoder) {
	e.PutString(r.ID)
	r.Spec.Encode(e)
	e.PutTime(r.Submitted)
	e.PutTime(r.Finished)
	e.PutInt(r.Negotiations)
	e.PutU32(uint32(len(r.Tasks)))
	for _, t := range r.Tasks {
		t.encode(e)
	}
}

func decodeAppRecord(d *orb.Decoder) (appRecord, error) {
	r := appRecord{ID: d.String()}
	spec, err := protocol.DecodeApplicationSpec(d)
	if err != nil {
		return appRecord{}, err
	}
	r.Spec = spec
	r.Submitted = d.Time()
	r.Finished = d.Time()
	r.Negotiations = d.Int()
	n := d.Count(taskRecordMin)
	if err := d.Err(); err != nil {
		return appRecord{}, err
	}
	for i := 0; i < n; i++ {
		r.Tasks = append(r.Tasks, decodeTaskRecord(d))
	}
	return r, d.Err()
}

func (b replicaBatch) encode(e *orb.Encoder) {
	e.PutString(b.ClusterID)
	e.PutInt(b.Seq)
	e.PutU32(uint32(len(b.Nodes)))
	for _, s := range b.Nodes {
		s.Encode(e)
	}
	e.PutU32(uint32(len(b.NodesGone)))
	for _, g := range b.NodesGone {
		e.PutString(g.NodeID)
		protocol.EncodeRef(e, g.Ref)
	}
	e.PutU32(uint32(len(b.Apps)))
	for _, a := range b.Apps {
		a.encode(e)
	}
	if b.Sched != nil {
		e.PutBool(true)
		b.Sched.encode(e)
	} else {
		e.PutBool(false)
	}
}

func decodeReplicaBatch(d *orb.Decoder) (replicaBatch, error) {
	b := replicaBatch{
		ClusterID: d.String(),
		Seq:       d.Int(),
	}
	// A node and an app decode, or fail, before the next is appended: for
	// them the bytes left bound the appends whatever the count's minimum.
	n := d.Count(1)
	if err := d.Err(); err != nil {
		return replicaBatch{}, err
	}
	for i := 0; i < n; i++ {
		s, err := protocol.DecodeNodeStatus(d)
		if err != nil {
			return replicaBatch{}, err
		}
		b.Nodes = append(b.Nodes, s)
	}
	n = d.Count(4 + 3*4)
	if err := d.Err(); err != nil {
		return replicaBatch{}, err
	}
	for i := 0; i < n; i++ {
		b.NodesGone = append(b.NodesGone, nodeGone{NodeID: d.String(), Ref: protocol.DecodeRef(d)})
	}
	n = d.Count(1)
	if err := d.Err(); err != nil {
		return replicaBatch{}, err
	}
	for i := 0; i < n; i++ {
		a, err := decodeAppRecord(d)
		if err != nil {
			return replicaBatch{}, err
		}
		b.Apps = append(b.Apps, a)
	}
	if d.Bool() {
		s, err := decodeSchedRecord(d)
		if err != nil {
			return replicaBatch{}, err
		}
		b.Sched = &s
	}
	return b, d.Err()
}

// replicator is the leader's replication stream: state changes are
// coalesced per key (latest wins) under the replicator's own mutex, and a
// periodic pump drains them into one batch it proposes to the consensus log.
// The pump holds no lock across the proposal — the batch is snapshotted first
// — so the stream never blocks the GRM mutex on a slow or unreachable quorum,
// and enqueueing from under g.mu is safe (lock order: g.mu → repl.mu, never
// the reverse).
type replicator struct {
	g     *GRM
	every time.Duration
	// propose appends one encoded batch to the election log and returns once
	// a quorum has acknowledged it. Immutable after construction.
	propose func([]byte) error

	// mu guards the pending maps, sched, seq, failures, stopped and timers.
	//
	//lint:guards nodes,nodesGone,apps,sched,seq,failures,stopped,timers
	mu        sync.Mutex
	nodes     map[string]protocol.NodeStatus
	nodesGone map[string]orb.ObjectRef
	apps      map[string]appRecord
	sched     *schedRecord
	seq       int
	failures  int // consecutive flush failures; reset by any success
	stopped   bool
	timers    []sim.Timer
}

// degradedAfter is how many consecutive flush failures mark the stream
// degraded: one may be a transient fault the next pump absorbs; two in a row
// mean the leader cannot reach a quorum.
const degradedAfter = 2

// degraded reports whether the stream has failed degradedAfter consecutive
// flushes: the leader's signal that it has lost its quorum and must stop
// serving writes it can no longer commit.
func (r *replicator) degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failures >= degradedAfter
}

// newReplicator builds the stream: drained batches become election log
// entries the leader applies only after a quorum of replicas has
// acknowledged them.
func newReplicator(g *GRM, every time.Duration, propose func([]byte) error) *replicator {
	if every <= 0 {
		every = DefaultReplicationInterval
	}
	return &replicator{
		g:         g,
		every:     every,
		propose:   propose,
		nodes:     make(map[string]protocol.NodeStatus),
		nodesGone: make(map[string]orb.ObjectRef),
		apps:      make(map[string]appRecord),
	}
}

func (r *replicator) enqueueNode(s protocol.NodeStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.nodesGone, s.NodeID)
	r.nodes[s.NodeID] = s
}

func (r *replicator) enqueueNodeGone(id string, ref orb.ObjectRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.nodes, id)
	r.nodesGone[id] = ref
}

func (r *replicator) enqueueApp(rec appRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps[rec.ID] = rec
}

func (r *replicator) enqueueSched(rec schedRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sched = &rec
}

func (r *replicator) setSeq(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.seq {
		r.seq = seq
	}
}

// start arms the self-rescheduling pump.
func (r *replicator) start() {
	var arm func()
	arm = func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.stopped {
			return
		}
		t := r.g.clock.AfterFunc(r.every, func() {
			r.flush()
			arm()
		})
		r.timers = append(r.timers, t)
	}
	arm()
}

func (r *replicator) stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	for _, t := range r.timers {
		t.Stop()
	}
	r.timers = nil
}

// flush drains the pending delta and proposes it as one batch. An empty
// batch is still proposed: its acknowledgement is how the leader learns it
// still holds a quorum (see degraded). On failure the drained entries are
// re-merged (unless newer state was enqueued meanwhile), so a transient
// quorum outage loses nothing.
func (r *replicator) flush() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	batch := replicaBatch{ClusterID: r.g.clusterID, Seq: r.seq}
	nodeIDs := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Strings(nodeIDs)
	for _, id := range nodeIDs {
		batch.Nodes = append(batch.Nodes, r.nodes[id])
	}
	goneIDs := make([]string, 0, len(r.nodesGone))
	for id := range r.nodesGone {
		goneIDs = append(goneIDs, id)
	}
	sort.Strings(goneIDs)
	for _, id := range goneIDs {
		batch.NodesGone = append(batch.NodesGone, nodeGone{NodeID: id, Ref: r.nodesGone[id]})
	}
	appIDs := make([]string, 0, len(r.apps))
	for id := range r.apps {
		appIDs = append(appIDs, id)
	}
	sort.Strings(appIDs)
	for _, id := range appIDs {
		batch.Apps = append(batch.Apps, r.apps[id])
	}
	batch.Sched = r.sched
	drainedNodes := r.nodes
	drainedGone := r.nodesGone
	drainedApps := r.apps
	drainedSched := r.sched
	r.nodes = make(map[string]protocol.NodeStatus)
	r.nodesGone = make(map[string]orb.ObjectRef)
	r.apps = make(map[string]appRecord)
	r.sched = nil
	r.mu.Unlock()

	var e orb.Encoder
	batch.encode(&e)
	err := r.propose(e.Bytes())

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failures++
		// Put the delta back without clobbering anything newer.
		for id, s := range drainedNodes {
			if _, newer := r.nodes[id]; !newer {
				if _, gone := r.nodesGone[id]; !gone {
					r.nodes[id] = s
				}
			}
		}
		for id, ref := range drainedGone {
			if _, newer := r.nodes[id]; !newer {
				if _, gone := r.nodesGone[id]; !gone {
					r.nodesGone[id] = ref
				}
			}
		}
		for id, rec := range drainedApps {
			if _, newer := r.apps[id]; !newer {
				r.apps[id] = rec
			}
		}
		if r.sched == nil {
			r.sched = drainedSched
		}
		return
	}
	r.failures = 0
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

// replicateAppLocked forwards an app's current state to the replication
// stream, if this GRM leads a replica set. Caller holds g.mu; the enqueue
// never blocks (lock order g.mu → repl.mu).
func (g *GRM) replicateAppLocked(app *appInfo) {
	if g.repl != nil {
		g.repl.enqueueApp(buildAppRecordLocked(app))
		g.repl.setSeq(g.seq)
	}
}

// replicateSchedLocked forwards the admission-queue snapshot and counters to
// the replication stream, if this GRM leads a replica set. Caller holds g.mu;
// the enqueue never blocks (lock order g.mu → repl.mu).
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

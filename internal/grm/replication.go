package grm

import (
	"sort"
	"sync"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// DefaultReplicationInterval is the cadence at which the primary flushes
// coalesced state changes to its standby. Every flush — even an empty one —
// doubles as the standby's heartbeat from the primary.
const DefaultReplicationInterval = 5 * time.Second

// ReplStats are cumulative replication counters (primary side).
type ReplStats struct {
	BatchesSent  int
	SendFailures int
	NodesSent    int
	AppsSent     int
}

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

// appRecord is the replicated form of one appInfo: everything the standby
// needs to continue scheduling, cancelling and reporting the application.
type appRecord struct {
	ID           string
	Spec         protocol.ApplicationSpec
	Submitted    time.Time
	Finished     time.Time
	Negotiations int
	Tasks        []taskRecord
}

// replicaBatch is one OpReplicate payload: the coalesced state delta since
// the previous flush, plus the primary's app sequence counter so a promoted
// standby never re-issues an app ID. Epoch is the sender's fencing epoch; a
// standby drops direct batches whose epoch is older than the newest it has
// seen, so a deposed primary cannot overwrite replicated state. Zero means
// unfenced (the legacy single-standby stream) and is always accepted.
type replicaBatch struct {
	ClusterID string
	Seq       int
	Epoch     int
	Nodes     []protocol.NodeStatus
	NodesGone []nodeGone
	Apps      []appRecord
	// Sched, when present, is the latest admission-queue snapshot. Optional
	// (bool-guarded on the wire) so batches from pre-admission primaries
	// still decode.
	Sched *schedRecord
}

// nodeGone records a node the primary's failure detector declared dead; the
// ref lets the standby withdraw the node's trader offers.
type nodeGone struct {
	NodeID string
	Ref    orb.ObjectRef
}

// schedRecord is the replicated admission-pipeline state: the IDs still
// waiting in the admission queue plus the backpressure counters, so a
// promoted standby resumes draining exactly where the primary stopped
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
	e.PutInt(b.Epoch)
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
		Epoch:     d.Int(),
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

// replicator is the primary-side replication stream: state changes are
// coalesced per key (latest wins) under the replicator's own mutex, and a
// periodic pump drains them into one OpReplicate invocation. The pump holds
// no lock across the Invoke — the batch is snapshotted first — so the stream
// never blocks the GRM mutex on a slow or dead standby, and enqueueing from
// under g.mu is safe (lock order: g.mu → repl.mu, never the reverse).
type replicator struct {
	g      *GRM
	target orb.ObjectRef
	every  time.Duration
	// send ships one drained batch. The legacy stream encodes it into a
	// direct OpReplicate invoke on target; the consensus stream proposes it
	// to the election log and returns once a quorum has acknowledged it.
	// Immutable after construction.
	send func(replicaBatch) error

	// mu guards the pending maps, sched, seq, stats, failures, stopped and
	// timers.
	//
	//lint:guards nodes,nodesGone,apps,sched,seq,stats,failures,stopped,timers
	mu        sync.Mutex
	nodes     map[string]protocol.NodeStatus
	nodesGone map[string]orb.ObjectRef
	apps      map[string]appRecord
	sched     *schedRecord
	seq       int
	stats     ReplStats
	failures  int // consecutive flush failures; reset by any success
	stopped   bool
	timers    []sim.Timer
}

// degradedAfter is how many consecutive flush failures mark the stream
// degraded: one may be a transient fault the next pump absorbs; two in a row
// on the consensus stream mean the leader cannot reach a quorum.
const degradedAfter = 2

// degraded reports whether the stream has failed degradedAfter consecutive
// flushes. On the consensus stream this is the leader's signal that it has
// lost its quorum and must stop serving writes it can no longer commit.
func (r *replicator) degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failures >= degradedAfter
}

func newReplicator(g *GRM, target orb.ObjectRef, every time.Duration) *replicator {
	if every <= 0 {
		every = DefaultReplicationInterval
	}
	r := &replicator{
		g:         g,
		target:    target,
		every:     every,
		nodes:     make(map[string]protocol.NodeStatus),
		nodesGone: make(map[string]orb.ObjectRef),
		apps:      make(map[string]appRecord),
	}
	r.send = func(b replicaBatch) error {
		var e orb.Encoder
		b.encode(&e)
		_, err := g.inv.Invoke(target, protocol.OpReplicate, e.Bytes())
		return err
	}
	return r
}

// newQuorumReplicator builds the consensus-backed stream: drained batches
// become election log entries the leader applies only after a quorum of
// replicas has acknowledged them.
func newQuorumReplicator(g *GRM, every time.Duration, propose func([]byte) error) *replicator {
	if every <= 0 {
		every = DefaultReplicationInterval
	}
	r := &replicator{
		g:         g,
		every:     every,
		nodes:     make(map[string]protocol.NodeStatus),
		nodesGone: make(map[string]orb.ObjectRef),
		apps:      make(map[string]appRecord),
	}
	r.send = func(b replicaBatch) error {
		var e orb.Encoder
		b.encode(&e)
		return propose(e.Bytes())
	}
	return r
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

// flush drains the pending delta and ships it as one batch. An empty batch
// is still sent: it is the heartbeat the standby's promotion monitor tracks.
// On failure the drained entries are re-merged (unless newer state was
// enqueued meanwhile), so a transient standby outage loses nothing.
func (r *replicator) flush() {
	epoch := r.g.Epoch() // before r.mu: lock order is g.mu → repl.mu
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	batch := replicaBatch{ClusterID: r.g.clusterID, Seq: r.seq, Epoch: epoch}
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

	err := r.send(batch)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.stats.SendFailures++
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
	r.stats.BatchesSent++
	r.stats.NodesSent += len(batch.Nodes)
	r.stats.AppsSent += len(batch.Apps)
}

func (r *replicator) statsSnapshot() ReplStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

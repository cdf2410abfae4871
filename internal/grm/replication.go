package grm

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// DefaultReplicationInterval is the cadence at which a replica-set leader
// flushes the entities it changed into the consensus log. Every flush — even
// an empty one — is a log entry the quorum must acknowledge, so it doubles as
// the leader's check that it still holds a quorum.
const DefaultReplicationInterval = 5 * time.Second

// replicaBatch is one consensus log entry: the current record of every
// entity the leader changed since its previous flush, plus its app sequence
// counter so a successor never re-issues an app ID. It carries no epoch: the
// log orders entries by the term of the leader that proposed them.
type replicaBatch struct {
	ClusterID string
	Seq       int
	Nodes     []nodeEntry
	Apps      []*appInfo
	// Queue, when present, is the admission queue; a flush that did not
	// change it leaves it out (bool-guarded on the wire).
	Queue *schedRecord
}

// nodeEntry is a node as the log carries it: its liveness record — status
// and departure deadline — or none, once the failure detector dropped it.
type nodeEntry struct {
	id string
	lv *nodeLiveness
}

// schedRecord is the admission queue as the log carries it: the IDs still
// waiting, plus the backpressure counters, so a successor resumes draining
// exactly where the old leader stopped.
type schedRecord struct {
	QueuedIDs []string
	Accepted  int
	Rejected  int
	Peak      int
	Batches   int
	MaxBatch  int
}

func (r schedRecord) encode(e *orb.Encoder) {
	e.PutStrings(r.QueuedIDs)
	e.PutInt(r.Accepted)
	e.PutInt(r.Rejected)
	e.PutInt(r.Peak)
	e.PutInt(r.Batches)
	e.PutInt(r.MaxBatch)
}

func (t *taskInfo) encode(e *orb.Encoder) {
	e.PutString(t.id)
	e.PutU8(uint8(t.state))
	e.PutString(t.nodeID)
	protocol.EncodeRef(e, t.lrm)
	e.PutF64(t.progress)
	e.PutF64(t.work)
	e.PutInt(t.restarts)
	e.PutF64(t.initialProgress)
}

// taskInfoMin is the encoded size of a taskInfo whose strings are empty.
const taskInfoMin = 4 + 1 + 4 + 3*4 + 8 + 8 + 8 + 8

func decodeTaskInfo(d *orb.Decoder) *taskInfo {
	return &taskInfo{
		id:              d.String(),
		state:           protocol.TaskState(d.U8()),
		nodeID:          d.String(),
		lrm:             protocol.DecodeRef(d),
		progress:        d.F64(),
		work:            d.F64(),
		restarts:        d.Int(),
		initialProgress: d.F64(),
	}
}

func (a *appInfo) encode(e *orb.Encoder) {
	e.PutString(a.id)
	e.PutInt(a.seq)
	a.spec.Encode(e)
	e.PutTime(a.submitted)
	e.PutTime(a.finished)
	e.PutInt(a.negotiations)
	e.PutU32(uint32(len(a.tasks)))
	for _, t := range a.tasks {
		t.encode(e)
	}
}

func decodeAppInfo(d *orb.Decoder) (*appInfo, error) {
	id, seq := d.String(), d.Int()
	spec, err := protocol.DecodeApplicationSpec(d)
	if err != nil {
		return nil, err
	}
	a := &appInfo{
		id:           id,
		seq:          seq,
		spec:         spec,
		constraint:   buildConstraint(spec),
		submitted:    d.Time(),
		finished:     d.Time(),
		negotiations: d.Int(),
	}
	for range d.Count(taskInfoMin) {
		a.tasks = append(a.tasks, decodeTaskInfo(d))
	}
	return a, d.Err()
}

func (b replicaBatch) encode(e *orb.Encoder) {
	e.PutString(b.ClusterID)
	e.PutInt(b.Seq)
	// A live node's ID is its status's; only a dropped one spells it out.
	e.PutU32(uint32(len(b.Nodes)))
	for _, n := range b.Nodes {
		e.PutBool(n.lv != nil)
		if n.lv != nil {
			n.lv.status.Encode(e)
			e.PutTime(n.lv.departUntil)
		} else {
			e.PutString(n.id)
		}
	}
	e.PutU32(uint32(len(b.Apps)))
	for _, a := range b.Apps {
		a.encode(e)
	}
	e.PutBool(b.Queue != nil)
	if b.Queue != nil {
		b.Queue.encode(e)
	}
}

func decodeReplicaBatch(d *orb.Decoder) (replicaBatch, error) {
	b := replicaBatch{
		ClusterID: d.String(),
		Seq:       d.Int(),
	}
	// A node and an app decode, or fail, before the next is appended: for
	// them the bytes left bound the appends whatever the count's minimum.
	for range d.Count(1) {
		var ent nodeEntry
		if d.Bool() {
			s, err := protocol.DecodeNodeStatus(d)
			if err != nil {
				return replicaBatch{}, err
			}
			ent = nodeEntry{id: s.NodeID, lv: &nodeLiveness{status: s, departUntil: d.Time()}}
		} else {
			ent.id = d.String()
		}
		if err := d.Err(); err != nil {
			return replicaBatch{}, err
		}
		b.Nodes = append(b.Nodes, ent)
	}
	for range d.Count(1) {
		a, err := decodeAppInfo(d)
		if err != nil {
			return replicaBatch{}, err
		}
		b.Apps = append(b.Apps, a)
	}
	if d.Bool() {
		b.Queue = &schedRecord{
			QueuedIDs: d.Strings(),
			Accepted:  d.Int(),
			Rejected:  d.Int(),
			Peak:      d.Int(),
			Batches:   d.Int(),
			MaxBatch:  d.Int(),
		}
	}
	return b, d.Err()
}

// batchLocked is the replica batch for the given entities, sorted by kind and
// ID: each entity's current record, read at flush time. Caller holds g.mu,
// and must encode the batch before releasing it.
func (g *GRM) batchLocked(ents []entity) replicaBatch {
	b := replicaBatch{ClusterID: g.clusterID, Seq: g.seq}
	for _, ent := range ents {
		switch ent.kind {
		case entityNode:
			b.Nodes = append(b.Nodes, nodeEntry{id: ent.id, lv: g.nodes[ent.id]})
		case entityApp:
			b.Apps = append(b.Apps, g.apps[ent.id])
		case entityQueue:
			b.Queue = &schedRecord{
				Accepted: g.stats.AdmissionQueued,
				Rejected: g.stats.AdmissionRejected,
				Peak:     g.stats.AdmissionPeakDepth,
				Batches:  g.stats.SchedulerBatches,
				MaxBatch: g.stats.MaxBatchSize,
			}
			for _, app := range g.admitQ {
				b.Queue.QueuedIDs = append(b.Queue.QueuedIDs, app.id)
			}
		}
	}
	return b
}

// replicator is the leader's replication stream: transitions mark the
// entities they change in a pending set under the replicator's own mutex,
// and a periodic pump turns the set into one batch it proposes to the
// consensus log. The pump reads the entities' records under g.mu and holds no
// lock across the proposal, so the stream never blocks the GRM mutex on a
// slow or unreachable quorum, and marking from under g.mu is safe (lock
// order: g.mu → repl.mu, never the reverse).
type replicator struct {
	g *GRM
	// propose appends one encoded batch to the election log and returns once
	// a quorum has acknowledged it. Immutable after construction.
	propose func([]byte) error

	// mu guards pending, failures, stopped and timer.
	//
	//lint:guards pending,failures,stopped,timer
	mu       sync.Mutex
	pending  map[entity]struct{}
	failures int // consecutive flush failures; reset by any success
	stopped  bool
	timer    sim.Timer // the pump's next flush
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
func newReplicator(g *GRM, propose func([]byte) error) *replicator {
	return &replicator{g: g, propose: propose, pending: make(map[entity]struct{})}
}

func (r *replicator) mark(e entity) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending[e] = struct{}{}
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
		r.timer = r.g.clock.AfterFunc(DefaultReplicationInterval, func() {
			r.flush()
			arm()
		})
	}
	arm()
}

func (r *replicator) stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	if r.timer != nil {
		r.timer.Stop()
	}
}

// flush drains the pending set and proposes the entities' records as one
// batch. An empty batch is still proposed: its acknowledgement is how the
// leader learns it still holds a quorum (see degraded). On failure the
// entities go back into the set; their records are read afresh at the next
// flush, so a transient quorum outage loses nothing and clobbers nothing.
func (r *replicator) flush() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	ents := slices.SortedFunc(maps.Keys(r.pending), func(a, b entity) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	})
	clear(r.pending)
	r.mu.Unlock()

	var e orb.Encoder
	r.g.mu.Lock()
	r.g.batchLocked(ents).encode(&e)
	r.g.mu.Unlock()
	err := r.propose(e.Bytes())

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failures++
		for _, ent := range ents {
			r.pending[ent] = struct{}{}
		}
		return
	}
	r.failures = 0
}

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
// flushes the entities it changed into the consensus log, one entry a flush;
// a flush with nothing changed proposes nothing.
const DefaultReplicationInterval = 5 * time.Second

// replicaBatch is one consensus log entry: the current record of every
// entity the leader changed since its previous flush. It carries no epoch:
// the log orders entries by the term of the leader that proposed them. Nor
// does it carry the app ID counter or the admission queue: a successor's
// counter follows the apps' seqs, and its first scheduling pass places every
// pending app in seq order.
type replicaBatch struct {
	ClusterID string
	Nodes     []nodeEntry
	Apps      []*appInfo
}

// nodeEntry is a node as the log carries it: its ID and record (nil: dead),
// which holds a deadline while it departs. Its status is soft state the node
// re-tells every period, and the log does not carry it.
type nodeEntry struct {
	id string
	lv *nodeLiveness
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
	e.PutU32(uint32(len(b.Nodes)))
	for _, n := range b.Nodes {
		e.PutString(n.id)
		e.PutBool(n.lv != nil)
		if n.lv == nil {
			continue
		}
		departing := !n.lv.departUntil.IsZero()
		e.PutBool(departing)
		if departing {
			e.PutTime(n.lv.departUntil)
		}
	}
	e.PutU32(uint32(len(b.Apps)))
	for _, a := range b.Apps {
		a.encode(e)
	}
}

func decodeReplicaBatch(d *orb.Decoder) (replicaBatch, error) {
	b := replicaBatch{ClusterID: d.String()}
	// A node and an app decode, or fail, before the next is appended: for
	// them the bytes left bound the appends whatever the count's minimum.
	for range d.Count(1) {
		ent := nodeEntry{id: d.String()}
		if d.Bool() {
			ent.lv = &nodeLiveness{}
			if d.Bool() {
				ent.lv.departUntil = d.Time()
			}
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
	return b, d.Err()
}

// batchLocked is the replica batch for the given entities, sorted by kind and
// ID: each entity's current record, read at flush time. Caller holds g.mu, and
// must encode the batch before releasing it.
func (g *GRM) batchLocked(ents []entity) replicaBatch {
	b := replicaBatch{ClusterID: g.clusterID}
	for _, ent := range ents {
		switch ent.kind {
		case entityNode:
			b.Nodes = append(b.Nodes, nodeEntry{id: ent.id, lv: g.nodes[ent.id]})
		case entityApp:
			b.Apps = append(b.Apps, g.apps[ent.id])
		}
	}
	return b
}

// replicator is the leader's replication stream: transitions mark the
// entities they change in the GRM's pending set under g.mu, and a flush — the
// pump's, or a Submit's — reads their records under g.mu into one batch it
// proposes to the consensus log with no GRM lock held, never blocking on the
// quorum. The set outlives the stream: a deposed leader's next term proposes
// what no entry committed meanwhile.
type replicator struct {
	g *GRM
	// propose appends one encoded batch to the election log and returns once
	// a quorum has acknowledged it. Immutable after construction.
	propose func([]byte) error

	// flushMu runs flushes one at a time, from draining the pending set to the
	// proposal's answer, so the log's order is the order the records were
	// read in, and every earlier flush has committed or re-marked.
	//
	//lint:lockorder grm.replicator.flushMu<grm.GRM.mu
	flushMu sync.Mutex

	// g.mu guards the rest.
	stopped bool
	timer   sim.TimerSlot // the pump's next flush
}

// newReplicator builds the stream: drained batches become election log
// entries the leader applies only after a quorum of replicas has
// acknowledged them.
func newReplicator(g *GRM, propose func([]byte) error) *replicator {
	return &replicator{g: g, propose: propose}
}

// armLocked schedules the pump's next flush, which re-arms it, unless the
// stream is stopped. Caller holds g.mu.
func (r *replicator) armLocked() {
	if r.stopped {
		return
	}
	r.timer.Set(r.g.clock.AfterFunc(DefaultReplicationInterval, func() {
		_ = r.flush() // a failed flush keeps its entities pending for the next
		r.g.mu.Lock()
		defer r.g.mu.Unlock()
		r.armLocked()
	}))
}

// stopLocked ends the stream: the pump stops, and a flush fails. Caller holds
// g.mu.
func (r *replicator) stopLocked() {
	r.stopped = true
	r.timer.Stop()
}

// flush drains the pending set and proposes the entities' records as one
// batch, and returns nil once everything marked before the call is committed:
// with nothing pending it proposes nothing. On failure the entities go back
// into the set; their records are read afresh at the next flush, so a
// transient quorum outage loses nothing and clobbers nothing.
func (r *replicator) flush() error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	g := r.g
	g.mu.Lock()
	if r.stopped {
		g.mu.Unlock()
		return orb.Errorf(orb.CodeApplication, "grm: replication stopped: no longer the leader")
	}
	ents := slices.SortedFunc(maps.Keys(g.pending), func(a, b entity) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	})
	clear(g.pending)
	var e orb.Encoder
	if len(ents) > 0 {
		g.batchLocked(ents).encode(&e)
	}
	g.mu.Unlock()
	if len(ents) == 0 {
		return nil
	}
	err := r.propose(e.Bytes())
	if err != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
		for _, ent := range ents {
			g.pending[ent] = struct{}{}
		}
	}
	return err
}

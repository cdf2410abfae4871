package grm

import (
	"testing"

	"integrade/internal/orb"
	"integrade/internal/sim"
)

// TestSchedRecordWireRoundTrip pins the optional trailing Sched section of
// the replica-batch wire format: a batch with scheduler state decodes to the
// same record, and a batch without one — a flush with nothing new to report
// on the queue — decodes to a nil Sched.
func TestSchedRecordWireRoundTrip(t *testing.T) {
	b := replicaBatch{
		ClusterID: "test",
		Seq:       7,
		Queue: &schedRecord{
			QueuedIDs: []string{"app-1", "app-2"},
			Accepted:  9,
			Rejected:  3,
			Peak:      4,
			Batches:   5,
			MaxBatch:  2,
		},
	}
	var e orb.Encoder
	b.encode(&e)
	got, err := decodeReplicaBatch(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Queue == nil {
		t.Fatal("Queue section lost in round trip")
	}
	if len(got.Queue.QueuedIDs) != 2 || got.Queue.QueuedIDs[0] != "app-1" || got.Queue.QueuedIDs[1] != "app-2" {
		t.Fatalf("QueuedIDs = %v", got.Queue.QueuedIDs)
	}
	if got.Queue.Accepted != 9 || got.Queue.Rejected != 3 || got.Queue.Peak != 4 ||
		got.Queue.Batches != 5 || got.Queue.MaxBatch != 2 {
		t.Fatalf("counters = %+v", *got.Queue)
	}

	var e2 orb.Encoder
	replicaBatch{ClusterID: "test", Seq: 8}.encode(&e2)
	got2, err := decodeReplicaBatch(orb.NewDecoder(e2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Queue != nil {
		t.Fatalf("batch without scheduler state decoded Queue = %+v", *got2.Queue)
	}
}

// TestApplyReplicaRebuildsAdmissionQueue is the failover half of the
// admission pipeline: a follower applying a log entry with scheduler state
// must rebuild its admission queue from the queued IDs — resolving them
// against the app records in the same entry, dropping unknowns — and adopt
// the replicated admission counters, so a successor resumes draining exactly
// where the old leader stopped.
func TestApplyReplicaRebuildsAdmissionQueue(t *testing.T) {
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	g.FollowAt(1)
	defer g.Stop()
	apply := func(index int, b replicaBatch) {
		var e orb.Encoder
		b.encode(&e)
		g.ApplyReplicaEntry(index, 1, e.Bytes())
	}

	apply(1, replicaBatch{
		ClusterID: "test",
		Apps:      []*appInfo{{id: "app-1"}, {id: "app-2"}},
		Queue: &schedRecord{
			QueuedIDs: []string{"app-1", "app-2", "app-lost"},
			Accepted:  3,
			Rejected:  1,
			Peak:      3,
			Batches:   2,
			MaxBatch:  2,
		},
	})

	g.mu.Lock()
	ids := make([]string, len(g.admitQ))
	for i, app := range g.admitQ {
		ids[i] = app.id
	}
	g.mu.Unlock()
	if len(ids) != 2 || ids[0] != "app-1" || ids[1] != "app-2" {
		t.Fatalf("rebuilt admission queue = %v, want [app-1 app-2] (app-lost dropped)", ids)
	}

	st := g.Stats()
	if st.AdmissionQueued != 3 || st.AdmissionRejected != 1 || st.AdmissionPeakDepth != 3 ||
		st.SchedulerBatches != 2 || st.MaxBatchSize != 2 {
		t.Fatalf("replicated admission counters = %+v", st)
	}
	if st.AdmissionQueueDepth != 2 {
		t.Fatalf("AdmissionQueueDepth = %d, want 2 (resolved entries only)", st.AdmissionQueueDepth)
	}

	// A later entry with no queue must leave the queue untouched —
	// the section is a full snapshot, not a delta, and is only sent when the
	// leader has something to report.
	apply(2, replicaBatch{ClusterID: "test", Apps: []*appInfo{{id: "app-3"}}})
	g.mu.Lock()
	depth := len(g.admitQ)
	g.mu.Unlock()
	if depth != 2 {
		t.Fatalf("batch without a queue changed queue depth to %d", depth)
	}
}

// TestDrainAdmissionLatch pins the one drain loop's two callers against each
// other. While another drainer holds the latch, or once the GRM stops, the
// background drainer leaves the queue as it is and clears drainerRunning so
// a later Submit can kick a fresh one. A synchronous drainer instead outwaits
// the latch holder and returns only with the queue empty.
func TestDrainAdmissionLatch(t *testing.T) {
	g := New("test", sim.NewVirtualClock(), orb.New())
	defer g.Stop()
	state := func() (queued int, running bool) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.admitQ), g.drainerRunning
	}

	g.mu.Lock()
	g.admitQ = append(g.admitQ, &appInfo{id: "app-1"})
	g.draining, g.drainDone, g.drainerRunning = true, make(chan struct{}), true
	g.mu.Unlock()
	g.drainAdmission(true)
	if queued, running := state(); queued != 1 || running {
		t.Fatalf("background drainer under a held latch: queued %d, running %v; want 1, false", queued, running)
	}

	go func() {
		g.mu.Lock()
		g.draining = false
		close(g.drainDone)
		g.mu.Unlock()
	}()
	g.drainAdmission(false)
	if queued, _ := state(); queued != 0 {
		t.Fatalf("synchronous drainer returned with %d queued", queued)
	}

	g.mu.Lock()
	g.admitQ = append(g.admitQ, &appInfo{id: "app-2"})
	g.stopped, g.drainerRunning = true, true
	g.mu.Unlock()
	g.drainAdmission(true)
	if queued, running := state(); queued != 1 || running {
		t.Fatalf("background drainer after Stop: queued %d, running %v; want 1, false", queued, running)
	}
}

// TestReplicateSchedLockedSnapshotsQueue checks the primary half: a queue
// transition marks the queue, and the next flush carries the live queue IDs
// and counters.
func TestReplicateSchedLockedSnapshotsQueue(t *testing.T) {
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	defer g.Stop()
	var proposed []byte
	repl := newReplicator(g, func(data []byte) error { proposed = data; return nil })

	g.mu.Lock()
	g.repl = repl
	g.stats.AdmissionRejected = 2
	g.queueLocked(&appInfo{id: "app-9"})
	g.mu.Unlock()
	repl.flush()

	b, err := decodeReplicaBatch(orb.NewDecoder(proposed))
	if err != nil {
		t.Fatal(err)
	}
	if b.Queue == nil {
		t.Fatal("a queue transition left the queue out of the batch")
	}
	if len(b.Queue.QueuedIDs) != 1 || b.Queue.QueuedIDs[0] != "app-9" {
		t.Fatalf("QueuedIDs = %v", b.Queue.QueuedIDs)
	}
	if b.Queue.Accepted != 1 || b.Queue.Rejected != 2 || b.Queue.Peak != 1 {
		t.Fatalf("counters = %+v", *b.Queue)
	}
}

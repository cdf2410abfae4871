package grm_test

import (
	"testing"
	"time"

	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
)

func bag(tasks int, work float64) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:         "bag",
		Kind:         protocol.AppParametric,
		NumTasks:     tasks,
		WorkPerTask:  work,
		Requirements: resource.Requirements{Min: resource.Vector{MIPS: 100, RAMMB: 16}},
		Alloc:        resource.Vector{MIPS: 500, RAMMB: 64},
	}
}

// TestDoneIsIdempotent: completions are delivered at least once, so the GRM
// sees some of them twice — an update applied whose reply was lost. The
// second one must change nothing: not the counters, not the finish stamp,
// and not a task some other event has moved on since.
func TestDoneIsIdempotent(t *testing.T) {
	c := newCluster(t, dedicated(1, 1000))
	id := c.submit(bag(2, 1e9))
	st := c.status(id)
	t0, t1 := st.Tasks[0].TaskID, st.Tasks[1].TaskID
	at := c.clock.Now()
	done := func(task string, after time.Duration) protocol.TaskEvent {
		return protocol.TaskEvent{Kind: protocol.TaskEventDone, AppID: id, TaskID: task, NodeID: "node-0", At: at.Add(after)}
	}
	steps := []struct {
		name         string
		ev           protocol.TaskEvent
		wantDone     int
		wantFinished time.Time
	}{
		{"first task done", done(t0, time.Minute), 1, time.Time{}},
		{"first task done again", done(t0, 2*time.Minute), 1, time.Time{}},
		{"progress after done", protocol.TaskEvent{Kind: protocol.TaskEventProgress, AppID: id, TaskID: t0, Progress: 5}, 1, time.Time{}},
		{"second task done", done(t1, 3*time.Minute), 2, at.Add(3 * time.Minute)},
		{"second task done again", done(t1, 4*time.Minute), 2, at.Add(3 * time.Minute)},
		{"first task done a third time", done(t0, 5*time.Minute), 2, at.Add(3 * time.Minute)},
		{"done for a task nobody has", done(id+"/ghost", 6*time.Minute), 2, at.Add(3 * time.Minute)},
	}
	for _, step := range steps {
		c.g.HandleNotify(step.ev)
		if got := c.g.Stats().TasksDone; got != step.wantDone {
			t.Fatalf("%s: TasksDone = %d, want %d", step.name, got, step.wantDone)
		}
		if got := c.status(id).Finished; !got.Equal(step.wantFinished) {
			t.Fatalf("%s: Finished = %v, want %v", step.name, got, step.wantFinished)
		}
	}
	for _, task := range c.status(id).Tasks {
		if task.State != protocol.TaskDone {
			t.Fatalf("task %s = %v, want done", task.TaskID, task.State)
		}
	}
}

// dropReply delivers every request and then, for the n-th update it sees,
// loses the reply: the manager has applied the update, the LRM is told it
// failed.
type dropReply struct {
	n       int
	updates int
	dropped int
}

func (d *dropReply) Intercept(_ orb.Endpoint, _, op string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
	reply, err := next()
	if op == protocol.OpUpdate {
		if d.updates++; d.updates == d.n {
			d.dropped++
			return nil, orb.Errorf(orb.CodeTransport, "reply lost")
		}
	}
	return reply, err
}

// TestLostUpdateReplyCountsCompletionsOnce drives the duplicate end to end
// over the loopback ORB: the update that carries three completions is
// applied and its reply dropped, so the LRM sends them again with the next
// one. The GRM counts each task once.
func TestLostUpdateReplyCountsCompletionsOnce(t *testing.T) {
	c := newCluster(t, dedicated(1, 2000))
	const tasks = 3
	id := c.submit(bag(tasks, 500*60)) // one minute each, side by side
	if got := c.g.Stats().TasksPlaced; got != tasks {
		t.Fatalf("TasksPlaced = %d, want %d", got, tasks)
	}
	// Updates go out every 15 s: the fourth from now is the first to see the
	// tasks finished.
	drop := &dropReply{n: 4}
	c.o.SetInterceptor(drop)
	defer c.o.SetInterceptor(nil)
	c.clock.Advance(70 * time.Second)
	if drop.dropped != 1 {
		t.Fatalf("dropped %d replies, want 1", drop.dropped)
	}
	if got := c.lrms[0].Stats(); got.TasksCompleted != tasks || got.UpdateFailures != 1 {
		t.Fatalf("LRM stats = %+v, want %d completions and one failed update", got, tasks)
	}
	if !c.status(id).Done() {
		t.Fatalf("app not done though the update was applied: %+v", c.status(id).Tasks)
	}
	finished := c.status(id).Finished

	c.clock.Advance(time.Minute) // the retry, and a few updates after it
	if got := c.g.Stats().TasksDone; got != tasks {
		t.Fatalf("TasksDone = %d after the retry, want %d", got, tasks)
	}
	if got := c.status(id).Finished; !got.Equal(finished) {
		t.Fatalf("Finished moved from %v to %v on the duplicate", finished, got)
	}
}

// TestMalformedUpdateAppliesNothing: an update whose event list is truncated,
// over-long, or carries a kind that must not ride it is a marshal error, and
// neither its status nor any of its events is applied.
func TestMalformedUpdateAppliesNothing(t *testing.T) {
	c := newCluster(t, nil)
	id := c.submit(bag(1, 1e9)) // stays pending: there is no node yet
	taskID := c.status(id).Tasks[0].TaskID
	status := protocol.NodeStatus{
		NodeID:   "n0",
		LRMRef:   orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "n0"}, Key: protocol.LRMKey},
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024},
		GridFree: resource.Vector{MIPS: 1000, RAMMB: 1024},
	}
	done := protocol.TaskEvent{Kind: protocol.TaskEventDone, AppID: id, TaskID: taskID, NodeID: "n0"}
	evicted := done
	evicted.Kind = protocol.TaskEventEvicted

	var whole orb.Encoder
	protocol.EncodeUpdate(&whole, status, []protocol.TaskEvent{done})
	var overlong orb.Encoder
	status.Encode(&overlong)
	overlong.PutU32(1 << 20)
	var wrongKind orb.Encoder
	protocol.EncodeUpdate(&wrongKind, status, []protocol.TaskEvent{done, evicted})
	var statusOnly orb.Encoder
	status.Encode(&statusOnly)

	for name, body := range map[string][]byte{
		"truncated inside the event": whole.Bytes()[:whole.Len()-3],
		"count without events":       whole.Bytes()[:statusOnly.Len()+4],
		"no event count":             statusOnly.Bytes(),
		"over-long event list":       overlong.Bytes(),
		"evicted rides the update":   wrongKind.Bytes(),
	} {
		_, err := c.o.Invoke(c.grmRef, protocol.OpUpdate, body)
		if !orb.IsCode(err, orb.CodeMarshal) {
			t.Errorf("%s: err = %v, want a marshal error", name, err)
		}
	}
	stats := c.g.Stats()
	if stats.UpdatesReceived != 0 || c.g.KnownNodes() != 0 {
		t.Errorf("a malformed update registered the node: %d updates, %d nodes", stats.UpdatesReceived, c.g.KnownNodes())
	}
	if stats.TasksDone != 0 || stats.TasksEvicted != 0 {
		t.Errorf("a malformed update delivered events: %+v", stats)
	}

	// The same body, whole, is accepted and applies both halves.
	if _, err := c.o.Invoke(c.grmRef, protocol.OpUpdate, whole.Bytes()); err != nil {
		t.Fatal(err)
	}
	if stats := c.g.Stats(); stats.UpdatesReceived != 1 || stats.TasksDone != 1 || c.g.KnownNodes() != 1 {
		t.Fatalf("the well-formed update: %+v, %d nodes", stats, c.g.KnownNodes())
	}
}

// TestStaleTaskEventsIgnored: an eviction, drain or progress report speaks
// for one run of a task. Once the task runs elsewhere, a retried Evicted from
// its old node must not restart it a second time, nor a late Progress or
// Drained from that node touch the new run.
func TestStaleTaskEventsIgnored(t *testing.T) {
	c := newCluster(t, nil, grm.WithPolicy(grm.BestFit{}))
	_, refA := bindFakeLRM(t, c, "stale-a", 0)
	b, refB := bindFakeLRM(t, c, "stale-b", 0)
	c.update(windowStatus(c, "stale-a", refA, 2000))
	c.update(windowStatus(c, "stale-b", refB, 1000))

	spec := hourTask("stale")
	spec.CheckpointEveryWork = 300_000
	spec.RestartEvicted = true
	id := c.submit(spec)
	taskID := c.status(id).Tasks[0].TaskID
	evicted := protocol.TaskEvent{Kind: protocol.TaskEventEvicted, AppID: id, TaskID: taskID, NodeID: "stale-a", Progress: 400_000, At: c.clock.Now()}
	c.g.HandleNotify(evicted)
	if task := c.status(id).Tasks[0]; task.NodeID != "stale-b" || task.State != protocol.TaskRunning {
		t.Fatalf("after the eviction: %+v, want running on stale-b", task)
	}
	c.g.HandleNotify(protocol.TaskEvent{Kind: protocol.TaskEventProgress, AppID: id, TaskID: taskID, NodeID: "stale-b", Progress: 350_000})
	before := c.g.Stats()

	for _, ev := range []protocol.TaskEvent{
		evicted, // a TCP retry re-delivers it
		{Kind: protocol.TaskEventProgress, AppID: id, TaskID: taskID, NodeID: "stale-a", Progress: 450_000},
		{Kind: protocol.TaskEventDrained, AppID: id, TaskID: taskID, NodeID: "stale-a", Progress: 450_000},
	} {
		c.g.HandleNotify(ev)
		task := c.status(id).Tasks[0]
		if task.NodeID != "stale-b" || task.State != protocol.TaskRunning || task.Restarts != 1 || task.Progress != 350_000 {
			t.Fatalf("stale %v from stale-a changed the task: %+v", ev.Kind, task)
		}
		if got := c.g.Stats(); got != before {
			t.Fatalf("stale %v from stale-a moved the counters:\n got %+v\nwant %+v", ev.Kind, got, before)
		}
		if n := b.executeCount(); n != 1 {
			t.Fatalf("stale %v from stale-a: stale-b executed %d copies, want 1", ev.Kind, n)
		}
	}
}

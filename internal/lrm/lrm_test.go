package lrm

import (
	"slices"
	"sync"
	"testing"
	"time"

	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

var linux = resource.Platform{Arch: "amd64", OS: "linux"}

// fakeGRM records what the LRM sends: statuses, the task events that rode
// the updates and the ones notified on their own.
type fakeGRM struct {
	mu       sync.Mutex
	updates  []protocol.NodeStatus
	rode     [][]protocol.TaskEvent // the events inside each of updates
	events   []protocol.TaskEvent   // arrived by OpNotify
	failNext bool
	down     bool // fail every update until cleared
	epoch    int  // fencing epoch returned in update replies
	// forward, when set, refuses every update with a forward to it, as a
	// replica that does not lead does; refused counts those refusals.
	forward    orb.ObjectRef
	refused    int
	reconciles []protocol.ReconcileRequest
}

func (f *fakeGRM) servant() orb.Servant {
	m := orb.NewOpMux().
		Handle(protocol.OpUpdate, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.failNext || f.down {
				f.failNext = false
				return nil, orb.Errorf(orb.CodeTransport, "injected")
			}
			if !f.forward.IsZero() {
				f.refused++
				return nil, orb.Errorf(orb.CodeForward, "%s", f.forward)
			}
			var buf [protocol.MaxWindows]protocol.AvailWindow
			s, windows, events, err := protocol.DecodeUpdate(req, nil, &buf)
			if err != nil {
				return nil, err
			}
			s.Windows = slices.Clone(windows)
			f.updates = append(f.updates, s)
			f.rode = append(f.rode, events.Collect())
			var e orb.Encoder
			e.PutInt(f.epoch)
			return &e, nil
		}).
		Handle(protocol.OpNotify, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			ev, err := protocol.DecodeTaskEvent(req)
			if err != nil {
				return nil, err
			}
			f.mu.Lock()
			f.events = append(f.events, ev)
			f.mu.Unlock()
			return &orb.Encoder{}, nil
		})
	orb.Serve(m, protocol.Reconcile, func(r protocol.ReconcileRequest) ([]string, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.reconciles = append(f.reconciles, r)
		return nil, nil
	})
	return m
}

func (f *fakeGRM) updateCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.updates)
}

func (f *fakeGRM) lastUpdate() protocol.NodeStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.updates[len(f.updates)-1]
}

func (f *fakeGRM) eventList() []protocol.TaskEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]protocol.TaskEvent(nil), f.events...)
}

// rodeOfKind returns the events of one kind that arrived inside updates.
func (f *fakeGRM) rodeOfKind(kind protocol.TaskEventKind) []protocol.TaskEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return ofKind(kind, f.rode...)
}

func ofKind(kind protocol.TaskEventKind, updates ...[]protocol.TaskEvent) []protocol.TaskEvent {
	var out []protocol.TaskEvent
	for _, events := range updates {
		for _, ev := range events {
			if ev.Kind == kind {
				out = append(out, ev)
			}
		}
	}
	return out
}

func (f *fakeGRM) setDown(down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = down
}

// departures returns the updates that announced a departure: those whose
// deadline lies after their timestamp.
func (f *fakeGRM) departures() []protocol.NodeStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []protocol.NodeStatus
	for _, s := range f.updates {
		if s.DepartUntil.After(s.Timestamp) {
			out = append(out, s)
		}
	}
	return out
}

type fixture struct {
	clock *sim.VirtualClock
	o     *orb.ORB
	grm   *fakeGRM
	lrm   *LRM
	node  *node.Node
	lrmC  lrmStub
}

// lrmStub calls the LRM's operations on one reference, as the GRM does.
type lrmStub struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

func (c lrmStub) Reserve(req protocol.ReserveRequest) (protocol.ReserveReply, error) {
	return protocol.Reserve.Invoke(c.inv, c.ref, req)
}

func (c lrmStub) Execute(req protocol.ExecuteRequest) error {
	_, err := protocol.Execute.Invoke(c.inv, c.ref, req)
	return err
}

func (c lrmStub) Release(id string) error {
	_, err := protocol.Release.Invoke(c.inv, c.ref, id)
	return err
}

func (c lrmStub) Cancel(taskID string, epoch int) (float64, error) {
	return protocol.Cancel.Invoke(c.inv, c.ref, protocol.CancelRequest{TaskID: taskID, Epoch: epoch})
}

func newFixture(t *testing.T, spec resource.MachineSpec, trace *usage.Trace, pol ncc.Policy, opts ...Option) *fixture {
	t.Helper()
	clock := sim.NewVirtualClock()
	o := orb.New()
	f := &fakeGRM{}
	grmAdapter := orb.NewAdapter()
	if err := grmAdapter.Register(protocol.GRMKey, f.servant()); err != nil {
		t.Fatal(err)
	}
	grmEP, err := o.BindLoopback("mgr", grmAdapter)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New("n0", spec, trace, pol, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	nodeAdapter := orb.NewAdapter()
	nodeEP, err := o.BindLoopback("n0", nodeAdapter)
	if err != nil {
		t.Fatal(err)
	}
	selfRef := orb.ObjectRef{Endpoint: nodeEP, Key: protocol.LRMKey}
	l := New(n, clock, o, selfRef, orb.ObjectRef{Endpoint: grmEP, Key: protocol.GRMKey}, opts...)
	if err := nodeAdapter.Register(protocol.LRMKey, l.Servant()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	return &fixture{
		clock: clock,
		o:     o,
		grm:   f,
		lrm:   l,
		node:  n,
		lrmC:  lrmStub{inv: o, ref: selfRef},
	}
}

func dedicatedSpec(mips float64) resource.MachineSpec {
	return resource.MachineSpec{
		Platform:  linux,
		Capacity:  resource.Vector{MIPS: mips, RAMMB: 1024, DiskMB: 10240, NetMbps: 100},
		LANID:     "lan0",
		Dedicated: true,
	}
}

func TestPeriodicUpdates(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second))
	f.lrm.Start()
	f.clock.Advance(5 * time.Minute)
	if got := f.grm.updateCount(); got != 10 {
		t.Fatalf("updates in 5 min at 30s period = %d, want 10", got)
	}
	s := f.grm.lastUpdate()
	if s.NodeID != "n0" || !s.Dedicated {
		t.Fatalf("status = %+v", s)
	}
	if s.GridFree.MIPS != 1000 {
		t.Fatalf("GridFree = %v", s.GridFree)
	}
	if got := f.lrm.Stats().UpdatesSent; got != 10 {
		t.Fatalf("UpdatesSent = %d", got)
	}
}

func TestUpdateFailureTolerated(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second))
	f.grm.failNext = true
	f.lrm.Start()
	f.clock.Advance(90 * time.Second)
	// 3 attempts, first failed: 2 recorded.
	if got := f.lrm.Stats().UpdatesSent; got != 2 {
		t.Fatalf("UpdatesSent = %d, want 2", got)
	}
	if got := f.grm.updateCount(); got != 2 {
		t.Fatalf("received = %d, want 2", got)
	}
}

func TestReserveExecuteLifecycle(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	alloc := resource.Vector{MIPS: 1000, RAMMB: 128}
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "app", Amount: alloc, TTL: time.Minute, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Granted {
		t.Fatalf("refused: %s", reply.Reason)
	}
	err = f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: "app", Alloc: alloc,
		Tasks: []protocol.TaskStart{{ReservationID: reply.ReservationID, TaskID: "app/t0", Work: 600_000}}, // 10 min at 1000 MIPS
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.lrm.Stats().TasksStarted; got != 1 {
		t.Fatalf("TasksStarted = %d", got)
	}
	// Advance past completion: the update tick syncs the node, and the
	// completion rides that same update. Nothing is notified on its own.
	f.lrm.Start()
	f.clock.Advance(5 * time.Minute)
	if got := f.grm.rodeOfKind(protocol.TaskEventProgress); len(got) == 0 || got[0].TaskID != "app/t0" || got[0].Progress <= 0 {
		t.Fatalf("progress events in the first updates = %+v, want the running task's", got)
	}
	f.clock.Advance(10 * time.Minute)
	done := f.grm.rodeOfKind(protocol.TaskEventDone)
	if len(done) != 1 {
		t.Fatalf("done events = %+v, want exactly one", done)
	}
	if ev := done[0]; ev.TaskID != "app/t0" || ev.AppID != "app" || ev.NodeID != "n0" || ev.Progress != 600_000 {
		t.Fatalf("event fields: %+v", ev)
	}
	if got := f.grm.eventList(); len(got) != 0 {
		t.Fatalf("notified on their own: %+v, want nothing", got)
	}
	if got := f.lrm.Stats().TasksCompleted; got != 1 {
		t.Fatalf("TasksCompleted = %d", got)
	}
}

// startTask reserves and executes one task of the given work on f's node.
func (f *fixture) startTask(t *testing.T, appID, taskID string, work float64) {
	t.Helper()
	alloc := resource.Vector{MIPS: 400, RAMMB: 64}
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: appID, Amount: alloc, TTL: time.Minute, Count: 1})
	if err != nil || !reply.Granted {
		t.Fatalf("reserve: %v %+v", err, reply)
	}
	if err := f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: appID, Alloc: alloc,
		Tasks: []protocol.TaskStart{{ReservationID: reply.ReservationID, TaskID: taskID, Work: work}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedUpdateKeepsCompletions: a completion whose update fails stays in
// the outbox, in order, and the next update that gets through delivers it —
// once, however many updates follow.
func TestFailedUpdateKeepsCompletions(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	f.startTask(t, "app", "app/t0", 400*60)  // one minute
	f.startTask(t, "app", "app/t1", 400*180) // three minutes

	f.grm.setDown(true)
	f.clock.Advance(2 * time.Minute)
	f.lrm.SendUpdate() // t0 finished; the update carrying it is lost
	f.clock.Advance(2 * time.Minute)
	f.lrm.SendUpdate() // t1 finished too; lost again
	if got := f.lrm.Stats(); got.TasksCompleted != 2 || got.UpdateFailures != 2 {
		t.Fatalf("stats = %+v, want 2 completed and 2 failures", got)
	}
	if got := f.grm.rodeOfKind(protocol.TaskEventDone); len(got) != 0 {
		t.Fatalf("done events through a dead manager: %+v", got)
	}

	f.grm.setDown(false)
	f.lrm.SendUpdate()
	f.lrm.SendUpdate()
	done := f.grm.rodeOfKind(protocol.TaskEventDone)
	if len(done) != 2 || done[0].TaskID != "app/t0" || done[1].TaskID != "app/t1" {
		t.Fatalf("done events = %+v, want t0 then t1, once each", done)
	}
}

// TestCompletionWhileReregisteringReachesNewManager: the old manager dies
// with a task running; the task finishes while the LRM is between managers;
// the first update the new manager accepts — the one that re-registers the
// node — carries the completion.
func TestCompletionWhileReregisteringReachesNewManager(t *testing.T) {
	next := &fakeGRM{}
	var nextRef orb.ObjectRef
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second),
		WithGRMResolver(func(orb.ObjectRef) (orb.ObjectRef, error) { return nextRef, nil }))
	f.lrm.reregDelay = func(string, int) time.Duration { return 10 * time.Minute }
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, next.servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := f.o.BindLoopback("mgr2", adapter)
	if err != nil {
		t.Fatal(err)
	}
	nextRef = orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}

	f.startTask(t, "app", "app/t0", 400*120) // two minutes
	f.lrm.Start()
	f.grm.setDown(true)
	// Two failed updates turn the update loop to re-registration; its first
	// attempt is ten minutes out, and the task finishes long before it.
	f.clock.Advance(5 * time.Minute)
	if got := f.lrm.Stats(); got.TasksCompleted != 1 || got.Reregistrations != 0 {
		t.Fatalf("stats before re-registration = %+v", got)
	}
	f.clock.Advance(10 * time.Minute)
	if got := f.lrm.Stats().Reregistrations; got != 1 {
		t.Fatalf("Reregistrations = %d, want 1", got)
	}
	if f.lrm.grmClient().Ref() != nextRef {
		t.Fatalf("reporting to %v, want the new manager", f.lrm.grmClient().Ref())
	}
	next.mu.Lock()
	registering := ofKind(protocol.TaskEventDone, next.rode[0])
	next.mu.Unlock()
	if len(registering) != 1 || registering[0].TaskID != "app/t0" {
		t.Fatalf("the re-registering update carried done events %+v, want app/t0", registering)
	}
	if got := next.rodeOfKind(protocol.TaskEventDone); len(got) != 1 {
		t.Fatalf("new manager saw done events %+v, want app/t0 once", got)
	}
	if got := f.grm.rodeOfKind(protocol.TaskEventDone); len(got) != 0 {
		t.Fatalf("dead manager saw done events %+v", got)
	}
}

// TestReregisterDelay pins the re-registration pacing to exact delays: the
// base doubles from 5s to the 10s cap (reached at attempt 2), each scaled by
// its node's deterministic jitter, so failover timings reproduce exactly.
func TestReregisterDelay(t *testing.T) {
	for _, c := range []struct {
		node    string
		attempt int
		want    time.Duration
	}{
		{"n0", 1, 4700926336},
		{"n0", 2, 9401852375},
		{"n0", 3, 9401852077},
		{"n0", 4, 9401854163},
		{"lrm-7", 1, 4082760944},
		{"lrm-7", 2, 8165520995},
		{"lrm-7", 3, 8165521293},
		{"lrm-7", 4, 8165520399},
		{"cluster-2/node-31", 1, 4724378531},
		{"cluster-2/node-31", 2, 9448756168},
		{"cluster-2/node-31", 3, 9448756466},
		{"cluster-2/node-31", 4, 9448755572},
	} {
		if got := reregisterDelay(c.node, c.attempt); got != c.want {
			t.Errorf("reregisterDelay(%q, %d) = %v, want %v", c.node, c.attempt, got, c.want)
		}
	}
}

func TestReserveRefusalReasons(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	// Too large.
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{
		Holder: "a", Amount: resource.Vector{MIPS: 5000}, TTL: time.Minute, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Granted {
		t.Fatal("oversized reservation granted")
	}
	if reply.Reason == "" {
		t.Fatal("refusal without reason")
	}
	// Node down.
	f.node.Fail(f.clock.Now(), time.Hour)
	reply, err = f.lrmC.Reserve(protocol.ReserveRequest{
		Holder: "a", Amount: resource.Vector{MIPS: 10}, TTL: time.Minute, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Granted {
		t.Fatal("down node granted reservation")
	}
	st := f.lrm.Stats()
	if st.ReserveRefusals != 2 || st.ReserveGrants != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReleaseFreesReservation(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	alloc := resource.Vector{MIPS: 1000, RAMMB: 128}
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "a", Amount: alloc, TTL: time.Hour, Count: 1})
	if err != nil || !reply.Granted {
		t.Fatalf("reserve: %v %+v", err, reply)
	}
	// Second identical reservation must fail while the first holds.
	r2, _ := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "b", Amount: alloc, TTL: time.Hour, Count: 1})
	if r2.Granted {
		t.Fatal("double booking")
	}
	if err := f.lrmC.Release(reply.ReservationID); err != nil {
		t.Fatal(err)
	}
	r3, _ := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "c", Amount: alloc, TTL: time.Hour, Count: 1})
	if !r3.Granted {
		t.Fatal("release did not free capacity")
	}
	// Releasing an unknown ID is harmless.
	if err := f.lrmC.Release("ghost"); err != nil {
		t.Fatal(err)
	}
}

// TestStaleEpochFencing: once the LRM has seen a manager at epoch E, every
// write fenced below E is refused — reservations, executes and cancels from a
// deposed primary place and destroy nothing. Epoch 0 is no exception.
func TestStaleEpochFencing(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	alloc := resource.Vector{MIPS: 1000, RAMMB: 64}

	// Epoch 3 manager places a task; the LRM adopts the fence.
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "a", Amount: alloc, TTL: time.Minute, Epoch: 3, Count: 1})
	if err != nil || !reply.Granted {
		t.Fatalf("reserve: %v %+v", err, reply)
	}
	if got := f.lrm.Fence(); got != 3 {
		t.Fatalf("Fence = %d, want 3", got)
	}
	if err := f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: "a", Alloc: alloc, Epoch: 3,
		Tasks: []protocol.TaskStart{{ReservationID: reply.ReservationID, TaskID: "t", Work: 1e9}},
	}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(10 * time.Minute)

	// A deposed epoch-2 manager can neither reserve nor cancel.
	r2, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "b", Amount: alloc, TTL: time.Minute, Epoch: 2, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Granted {
		t.Fatal("stale-epoch reservation granted")
	}
	if progress, err := f.lrmC.Cancel("t", 2); err != nil || progress != 0 {
		t.Fatalf("stale cancel = %v, %v; want zero progress", progress, err)
	}
	if got := f.lrm.Stats().StaleEpochRejections; got < 2 {
		t.Fatalf("StaleEpochRejections = %d, want >= 2", got)
	}

	// The current-epoch manager still works.
	if progress, err := f.lrmC.Cancel("t", 3); err != nil || progress <= 0 {
		t.Fatalf("current-epoch cancel = %v, %v; want progress > 0", progress, err)
	}

	// A stale execute against a fresh reservation is refused too.
	r3, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "c", Amount: resource.Vector{MIPS: 1}, TTL: time.Minute, Epoch: 3, Count: 1})
	if err != nil || !r3.Granted {
		t.Fatalf("reserve: %v %+v", err, r3)
	}
	err = f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: "c", Alloc: resource.Vector{MIPS: 1}, Epoch: 1,
		Tasks: []protocol.TaskStart{{ReservationID: r3.ReservationID, TaskID: "t2", Work: 1}},
	})
	if !orb.IsCode(err, orb.CodeApplication) {
		t.Fatalf("stale execute err = %v", err)
	}

	// Once the fence is at least 1, an epoch-0 write is refused and counted,
	// like any stale one.
	before := f.lrm.Stats().StaleEpochRejections
	r0, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "d", Amount: resource.Vector{MIPS: 1}, TTL: time.Minute, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r0.Granted {
		t.Fatal("epoch-0 reservation granted past a fence of 3")
	}
	if got := f.lrm.Stats().StaleEpochRejections; got != before+1 {
		t.Fatalf("StaleEpochRejections = %d, want %d", got, before+1)
	}
	if got := f.lrm.Fence(); got != 3 {
		t.Fatalf("Fence = %d after an epoch-0 write, want 3", got)
	}
}

// TestStaleManagerEpochTriggersRereg: when an update reply reveals the
// manager's epoch regressed below the newest this LRM has seen (a deposed
// primary still answering), the LRM treats it as an update failure and
// re-resolves toward the real leader.
func TestStaleManagerEpochTriggersRereg(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second))
	f.grm.mu.Lock()
	f.grm.epoch = 5
	f.grm.mu.Unlock()
	f.lrm.Start()
	f.clock.Advance(30 * time.Second)
	if got := f.lrm.Fence(); got != 5 {
		t.Fatalf("Fence = %d, want 5", got)
	}
	// The manager's epoch regresses: a stale primary answering on the old ref.
	f.grm.mu.Lock()
	f.grm.epoch = 2
	f.grm.mu.Unlock()
	f.clock.Advance(90 * time.Second)
	st := f.lrm.Stats()
	if st.StaleEpochRejections == 0 {
		t.Fatalf("stale manager not detected: %+v", st)
	}
	if st.UpdateFailures == 0 {
		t.Fatalf("stale epoch not treated as update failure: %+v", st)
	}
}

func TestExecuteUnknownReservationFails(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	err := f.lrmC.Execute(protocol.ExecuteRequest{
		Alloc: resource.Vector{MIPS: 100},
		Tasks: []protocol.TaskStart{{ReservationID: "ghost", TaskID: "t", Work: 100}},
	})
	if !orb.IsCode(err, orb.CodeApplication) {
		t.Fatalf("err = %v", err)
	}
}

func TestCancelReturnsProgress(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	alloc := resource.Vector{MIPS: 1000, RAMMB: 64}
	reply, _ := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "a", Amount: alloc, TTL: time.Minute, Count: 1})
	if err := f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: "a", Alloc: alloc,
		Tasks: []protocol.TaskStart{{ReservationID: reply.ReservationID, TaskID: "t", Work: 1e9}},
	}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(10 * time.Minute)
	progress, err := f.lrmC.Cancel("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000.0 * 600 // 10 min at 1000 MIPS
	if progress < want*0.9 || progress > want*1.1 {
		t.Fatalf("progress = %v, want ~%v", progress, want)
	}
	// Unknown task cancels to zero progress.
	progress, err = f.lrmC.Cancel("ghost", 0)
	if err != nil || progress != 0 {
		t.Fatalf("ghost cancel = %v, %v", progress, err)
	}
}

func TestStatusDescribesDedicatedNode(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	now := f.clock.Now()
	s := f.lrm.Status()
	if s.NodeID != "n0" || s.Capacity.MIPS != 1000 || !s.Dedicated {
		t.Fatalf("Status = %+v", s)
	}
	// A dedicated node advertises a long predicted idle and one window
	// covering the whole forecast horizon.
	if s.PredictedIdle <= 0 {
		t.Fatalf("dedicated PredictedIdle = %v", s.PredictedIdle)
	}
	want := protocol.AvailWindow{Start: now, End: now.Add(ForecastHorizon), Confidence: 1}
	if len(s.Windows) != 1 || s.Windows[0] != want {
		t.Fatalf("dedicated Windows = %+v, want [%+v]", s.Windows, want)
	}
}

func TestEvictionNotification(t *testing.T) {
	spec := resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024, DiskMB: 100, NetMbps: 10},
		LANID:    "lan0",
	}
	tr := usage.NewTrace(usage.OfficeWorker, 7)
	pol := ncc.Policy{Mode: ncc.ModeIdleOnly, CPUFraction: 1, RAMFraction: 0.9, IdleAfter: 5 * time.Minute}
	f := newFixture(t, spec, tr, pol, WithUpdatePeriod(time.Minute))
	f.lrm.Start()
	// 04:00: node idle.
	f.clock.Advance(4 * time.Hour)
	alloc := resource.Vector{MIPS: 500, RAMMB: 64}
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "a", Amount: alloc, TTL: time.Minute, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Granted {
		t.Skipf("node busy at 04:00 (burst): %s", reply.Reason)
	}
	if err := f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: "a", Alloc: alloc,
		Tasks: []protocol.TaskStart{{ReservationID: reply.ReservationID, TaskID: "t", Work: 1e12}},
	}); err != nil {
		t.Fatal(err)
	}
	// Owner returns at 09:00.
	f.clock.Advance(7 * time.Hour)
	var evicted bool
	for _, ev := range f.grm.eventList() {
		if ev.Kind == protocol.TaskEventEvicted && ev.TaskID == "t" {
			evicted = true
			if ev.Progress <= 0 {
				t.Fatal("evicted with zero progress")
			}
		}
	}
	if !evicted {
		t.Fatal("no eviction notification")
	}
	if f.lrm.Stats().TasksEvicted != 1 {
		t.Fatalf("TasksEvicted = %d", f.lrm.Stats().TasksEvicted)
	}
}

func TestLUPATrainsOverSimulatedWeeks(t *testing.T) {
	spec := resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024, DiskMB: 100, NetMbps: 10},
		LANID:    "lan0",
	}
	tr := usage.NewTrace(usage.OfficeWorker, 7)
	f := newFixture(t, spec, tr, ncc.Default(), WithUpdatePeriod(time.Hour))
	f.lrm.Start()
	// 9 simulated days: the daily retrain tick has at least 8 full days.
	f.clock.Advance(9 * 24 * time.Hour)
	a := f.lrm.analyzer
	if a == nil {
		t.Fatal("non-dedicated node without analyzer")
	}
	if a.Days() < 8 {
		t.Fatalf("training days = %d", a.Days())
	}
	if !a.Pattern().Trained() {
		t.Fatal("pattern untrained after 9 days")
	}
	// Predicted idle flows into status updates at some point.
	s := f.lrm.Status()
	_ = s // prediction value depends on instant; presence of pattern suffices
}

func TestStartIdempotentStopCancels(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second))
	f.lrm.Start()
	f.lrm.Start() // second Start is a no-op
	f.clock.Advance(time.Minute)
	first := f.grm.updateCount()
	if first != 2 {
		t.Fatalf("updates after 1 min = %d, want 2 (Start not idempotent?)", first)
	}
	f.lrm.Stop()
	f.clock.Advance(5 * time.Minute)
	if got := f.grm.updateCount(); got != first {
		t.Fatalf("updates after Stop = %d, want %d", got, first)
	}
}

// heldTimers counts the timers l holds.
func heldTimers(l *LRM) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, t := range l.timers {
		if t != (sim.TimerSlot{}) {
			n++
		}
	}
	return n
}

// TestTimersBoundedByLoops: an LRM holds at most one timer per loop. A sim
// day at 30-s updates, half of it with its manager down and the update loop
// re-registering, and a leader's calls now and then, fires thousands of
// timers (3 170 were held when every loop kept each it armed). Stop cancels
// them, and Start after Stop runs each loop once: the hour after a restart
// reads one accepted update every 30 s.
func TestTimersBoundedByLoops(t *testing.T) {
	mgr := orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "mgr"}, Key: protocol.GRMKey}
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second),
		WithGRMResolver(func(orb.ObjectRef) (orb.ObjectRef, error) { return mgr, nil }))
	f.grm.epoch = 1 // the leader's calls below raise the fence to 1
	f.lrm.Start()
	other := orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "mgr-2"}, Key: protocol.GRMKey}
	for hour := range 24 {
		f.grm.setDown(hour >= 12)
		if _, err := protocol.Adopt.Invoke(f.o, f.lrmC.ref, protocol.AdoptRequest{Epoch: 1, GRM: other}); err != nil {
			t.Fatal(err)
		}
		f.clock.Advance(time.Hour)
	}
	if f.lrm.Stats().UpdateFailures == 0 {
		t.Fatal("no update failed while the manager was down")
	}
	if n := heldTimers(f.lrm); n > numLoops {
		t.Fatalf("%d timers held after a sim day, want at most %d, one a loop", n, numLoops)
	}
	f.lrm.Stop()
	if n := heldTimers(f.lrm); n != 0 {
		t.Fatalf("%d timers held after Stop", n)
	}
	f.grm.setDown(false)
	f.lrm.Start()
	before := f.grm.updateCount()
	f.clock.Advance(time.Hour)
	if got := f.grm.updateCount() - before; got != 120 {
		t.Fatalf("%d updates accepted in the hour after a restart at 30-s updates, want 120", got)
	}
}

// TestRestartDuringReregistration: an LRM stopped while it re-registers
// resumes re-registering once started again. Its manager goes down and two
// updates fail; it is stopped; the resolver now names a live manager; it is
// started, and within the hour it reports to the live manager.
func TestRestartDuringReregistration(t *testing.T) {
	live := &fakeGRM{}
	var target orb.ObjectRef
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(30*time.Second),
		WithGRMResolver(func(orb.ObjectRef) (orb.ObjectRef, error) { return target, nil }))
	dead := f.lrm.grmClient().Ref()
	liveRef := f.bindGRM(t, "live", live)
	target = dead
	f.grm.setDown(true)
	f.lrm.Start()
	f.clock.Advance(time.Minute)
	if st := f.lrm.Stats(); st.UpdateFailures != reregisterAfter {
		t.Fatalf("stats = %+v, want %d failed updates", st, reregisterAfter)
	}

	f.lrm.Stop()
	target = liveRef
	f.lrm.Start()
	f.clock.Advance(time.Hour)

	st := f.lrm.Stats()
	if got := f.lrm.grmClient().Ref(); got != liveRef || st.Reregistrations != 1 {
		t.Fatalf("reporting to %v with stats %+v, want the live manager %v after one re-registration",
			got, st, liveRef)
	}
	if live.updateCount() == 0 {
		t.Fatal("the live manager got no update")
	}
}

// TestRotationPassesOverLeaving: a rotation over three managers, leaving the
// first, never names it, and names the other two in turn.
func TestRotationPassesOverLeaving(t *testing.T) {
	var refs []orb.ObjectRef
	for _, addr := range []string{"m0", "m1", "m2"} {
		refs = append(refs, orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: addr}, Key: protocol.GRMKey})
	}
	resolve := Rotation(refs...)
	var got []string
	for range 6 {
		ref, err := resolve(refs[0])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ref.Endpoint.Addr)
	}
	if want := []string{"m1", "m2", "m1", "m2", "m1", "m2"}; !slices.Equal(got, want) {
		t.Fatalf("leaving m0, the rotation named %v, want %v", got, want)
	}
	if ref, _ := Rotation(refs[0])(refs[0]); ref != refs[0] {
		t.Fatalf("a rotation over the manager being left alone named %v, want it", ref)
	}
}

func TestGridFreeTracksShare(t *testing.T) {
	// Shared-mode node with a busy owner: GridFree shrinks accordingly.
	spec := resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1000, DiskMB: 100, NetMbps: 10},
		LANID:    "lan0",
	}
	tr := usage.NewTrace(usage.AlwaysBusy, 5) // owner ~0.8 CPU
	pol := ncc.Policy{Mode: ncc.ModeShared, CPUFraction: 0.9, RAMFraction: 0.9, IdleAfter: time.Minute}
	f := newFixture(t, spec, tr, pol)
	s := f.lrm.Status()
	if s.GridFree.MIPS > 350 {
		t.Fatalf("GridFree.MIPS = %v, want squeezed below ~300", s.GridFree.MIPS)
	}
	if !s.OwnerBusy {
		t.Fatal("OwnerBusy = false for AlwaysBusy trace")
	}
}

func TestStatusPublishesForecastWindows(t *testing.T) {
	spec := resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024, DiskMB: 100, NetMbps: 10},
		LANID:    "lan0",
	}
	tr := usage.NewTrace(usage.OfficeWorker, 7)
	f := newFixture(t, spec, tr, ncc.Default(), WithUpdatePeriod(time.Hour))
	f.lrm.Start()
	// Before training: no forecast, no windows.
	if got := f.lrm.Status().Windows; len(got) != 0 {
		t.Fatalf("untrained Windows = %v, want none", got)
	}
	// Train for 9 days, then probe at 04:00 (owner asleep).
	f.clock.Advance(9*24*time.Hour + 4*time.Hour)
	s := f.lrm.Status()
	if len(s.Windows) == 0 {
		t.Fatal("trained idle node published no availability windows")
	}
	if len(s.Windows) > protocol.MaxWindows {
		t.Fatalf("Windows = %d entries, want <= %d (status size cap)", len(s.Windows), protocol.MaxWindows)
	}
	for i, w := range s.Windows {
		if !w.Start.Before(w.End) {
			t.Fatalf("window %d empty: %+v", i, w)
		}
		if w.Confidence <= 0 || w.Confidence > 1 {
			t.Fatalf("window %d confidence = %v", i, w.Confidence)
		}
	}
}

func TestStatusDedicatedNodeAdvertisesOpenWindow(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	s := f.lrm.Status()
	if len(s.Windows) != 1 {
		t.Fatalf("dedicated Windows = %v, want exactly one synthetic window", s.Windows)
	}
	w := s.Windows[0]
	if w.Confidence != 1 {
		t.Fatalf("dedicated window confidence = %v, want 1", w.Confidence)
	}
	if w.End.Sub(w.Start) < ForecastHorizon {
		t.Fatalf("dedicated window span = %v, want >= %v", w.End.Sub(w.Start), ForecastHorizon)
	}
}

func TestDepartureDrainCheckpointsBeforeOwnerReturns(t *testing.T) {
	// A trained office-worker node running grid work overnight: as the LUPA
	// forecast sees the 09:00 owner arrival coming inside the drain lead, the
	// LRM must cancel the task at its exact progress, report it Drained (not
	// Evicted) and announce the departure to the GRM.
	spec := resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024, DiskMB: 100, NetMbps: 10},
		LANID:    "lan0",
	}
	tr := usage.NewTrace(usage.OfficeWorker, 7)
	pol := ncc.Policy{Mode: ncc.ModeIdleOnly, CPUFraction: 1, RAMFraction: 0.9, IdleAfter: 5 * time.Minute}
	f := newFixture(t, spec, tr, pol,
		WithUpdatePeriod(time.Minute), WithDepartureDrain(10*time.Minute))
	f.lrm.Start()
	// Train across 9 days, then land at 04:00 on day 10.
	f.clock.Advance(9*24*time.Hour + 4*time.Hour)

	alloc := resource.Vector{MIPS: 500, RAMMB: 64}
	reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "a", Amount: alloc, TTL: time.Minute, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Granted {
		t.Skipf("node busy at 04:00 (burst): %s", reply.Reason)
	}
	if err := f.lrmC.Execute(protocol.ExecuteRequest{
		AppID: "a", Alloc: alloc,
		Tasks: []protocol.TaskStart{{ReservationID: reply.ReservationID, TaskID: "t", Work: 1e12}},
	}); err != nil {
		t.Fatal(err)
	}

	// Run towards the 09:00 owner arrival.
	f.clock.Advance(5 * time.Hour)
	var drained, evicted bool
	for _, ev := range f.grm.eventList() {
		switch {
		case ev.Kind == protocol.TaskEventDrained && ev.TaskID == "t":
			drained = true
			if ev.Progress <= 0 {
				t.Fatal("drained with zero progress")
			}
		case ev.Kind == protocol.TaskEventEvicted && ev.TaskID == "t":
			evicted = true
		}
	}
	if !drained {
		t.Fatal("no drain notification before the predicted owner return")
	}
	if evicted {
		t.Fatal("task evicted despite the proactive drain")
	}
	deps := f.grm.departures()
	if len(deps) == 0 {
		t.Fatal("no update announced the departure")
	}
	first := deps[0]
	if first.NodeID != "n0" {
		t.Fatalf("departure NodeID = %q", first.NodeID)
	}
	// The drain fired inside the lead: deadline at most 10 min past the
	// announcement.
	if first.DepartUntil.Sub(first.Timestamp) > 10*time.Minute {
		t.Fatalf("departure lead = %v, want <= 10m", first.DepartUntil.Sub(first.Timestamp))
	}
	stats := f.lrm.Stats()
	if stats.TasksDrained != 1 {
		t.Fatalf("TasksDrained = %d, want 1", stats.TasksDrained)
	}
	if stats.DepartureNotices < 1 {
		t.Fatalf("DepartureNotices = %d, want >= 1", stats.DepartureNotices)
	}
	if stats.TasksEvicted != 0 {
		t.Fatalf("TasksEvicted = %d, want 0 (drain pre-empted the eviction)", stats.TasksEvicted)
	}
	// The node is actually empty before the owner sits down.
	if got := len(f.node.RunningTasks()); got != 0 {
		t.Fatalf("node still runs %d tasks after drain", got)
	}
}

// TestStatusTruncatesFragmentedForecast: an owner at the machine every other
// hour leaves about a dozen idle windows a day. The status carries the
// earliest protocol.MaxWindows of them, the most a GRM decodes.
func TestStatusTruncatesFragmentedForecast(t *testing.T) {
	spec := resource.MachineSpec{
		Platform: linux,
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024, DiskMB: 100, NetMbps: 10},
		LANID:    "lan0",
	}
	fragmented := usage.Profile{Name: "fragmented"}
	for h := 1.0; h < 24; h += 2 {
		fragmented.Weekday = append(fragmented.Weekday, usage.Window{StartHour: h, EndHour: h + 1, CPU: 0.6, RAM: 0.5})
	}
	fragmented.Weekend = fragmented.Weekday
	f := newFixture(t, spec, usage.NewTrace(fragmented, 7), ncc.Default(), WithUpdatePeriod(time.Hour))
	f.lrm.Start()
	f.clock.Advance(9 * 24 * time.Hour)
	now := f.clock.Now()
	forecast := f.lrm.analyzer.Forecast(now, ForecastHorizon)
	if len(forecast) <= protocol.MaxWindows {
		t.Fatalf("the forecast has %d windows, want a fragmented one of more than %d", len(forecast), protocol.MaxWindows)
	}
	got := f.lrm.Status().Windows
	if len(got) != protocol.MaxWindows {
		t.Fatalf("the status carries %d of the forecast's %d windows, want %d", len(got), len(forecast), protocol.MaxWindows)
	}
	for i, w := range got {
		if !w.Start.Equal(forecast[i].Start) || !w.End.Equal(forecast[i].End) {
			t.Fatalf("window %d = %v–%v, want the forecast's %v–%v", i, w.Start, w.End, forecast[i].Start, forecast[i].End)
		}
	}
	var e orb.Encoder
	protocol.EncodeUpdate(&e, f.lrm.Status(), nil)
	var buf [protocol.MaxWindows]protocol.AvailWindow
	if _, _, _, err := protocol.DecodeUpdate(orb.NewDecoder(e.Bytes()), nil, &buf); err != nil {
		t.Fatalf("the GRM's decoder refuses the truncated status: %v", err)
	}
}

package grm_test

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
)

// fakeLRM is a minimal LRM servant that grants every hold asked for (up to
// maxGrants in all) and records the tasks it was asked to execute. It lets tests feed
// the GRM synthetic NodeStatus updates with precisely controlled
// availability windows, without a real LRM's periodic updates overwriting
// them.
type fakeLRM struct {
	name      string
	maxGrants int    // 0 = unlimited
	onExecute func() // if set, runs after each Execute is recorded

	mu       sync.Mutex
	grants   int
	executed []protocol.TaskStart
}

func (f *fakeLRM) executeCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.executed)
}

func (f *fakeLRM) executedAt(i int) protocol.TaskStart {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.executed[i]
}

// bindFakeLRM registers a fake LRM servant at its own loopback endpoint and
// returns it with the object reference to advertise in NodeStatus updates.
func bindFakeLRM(t *testing.T, c *cluster, name string, maxGrants int) (*fakeLRM, orb.ObjectRef) {
	t.Helper()
	f := &fakeLRM{name: name, maxGrants: maxGrants}
	mux := orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			r, err := protocol.DecodeReserveRequest(req)
			if err != nil {
				return nil, err
			}
			var ids []string
			f.mu.Lock()
			for len(ids) < r.Count && (f.maxGrants == 0 || f.grants < f.maxGrants) {
				f.grants++
				ids = append(ids, fmt.Sprintf("%s-r%d", f.name, f.grants))
			}
			f.mu.Unlock()
			reply := protocol.ReserveReply{Reason: "full"}
			if len(ids) > 0 {
				reply = protocol.ReserveReply{Granted: true, ReservationID: ids[0], More: ids[1:]}
			}
			e := &orb.Encoder{}
			reply.Encode(e)
			return e, nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			exec, err := protocol.DecodeExecuteRequest(req)
			if err != nil {
				return nil, err
			}
			f.mu.Lock()
			f.executed = append(f.executed, exec.Tasks...)
			f.mu.Unlock()
			if f.onExecute != nil {
				f.onExecute()
			}
			return &orb.Encoder{}, nil
		}).
		Handle(protocol.OpCancel, func(_ string, _ *orb.Decoder) (*orb.Encoder, error) {
			e := &orb.Encoder{}
			e.PutF64(0)
			return e, nil
		}).
		Handle(protocol.OpRelease, func(_ string, _ *orb.Decoder) (*orb.Encoder, error) {
			return &orb.Encoder{}, nil
		})
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.LRMKey, mux); err != nil {
		t.Fatal(err)
	}
	ep, err := c.o.BindLoopback(name, adapter)
	if err != nil {
		t.Fatal(err)
	}
	return f, orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}
}

// windowStatus builds a synthetic NodeStatus advertising the given free MIPS
// and availability windows.
func windowStatus(c *cluster, nodeID string, ref orb.ObjectRef, mips float64, ws ...protocol.AvailWindow) protocol.NodeStatus {
	cap := resource.Vector{MIPS: mips, RAMMB: 1024, DiskMB: 10240, NetMbps: 100}
	return protocol.NodeStatus{
		NodeID:    nodeID,
		LRMRef:    ref,
		Platform:  linux,
		LANID:     "lan0",
		Capacity:  cap,
		GridFree:  cap,
		Timestamp: c.clock.Now(),
		Windows:   ws,
	}
}

// departing is s announcing a departure until deadline.
func departing(s protocol.NodeStatus, deadline time.Time) protocol.NodeStatus {
	s.DepartUntil = deadline
	return s
}

// prompted is s sent at once, outside the node's update cadence, as an LRM
// reports an eviction or a drain.
func prompted(s protocol.NodeStatus) protocol.NodeStatus {
	s.Prompted = true
	return s
}

// update sends s, with the events that ride it, to the cluster's GRM as an
// LRM does, through GRMClient.Update over loopback.
func (c *cluster) update(s protocol.NodeStatus, events ...protocol.TaskEvent) {
	c.t.Helper()
	if _, err := protocol.NewGRMClient(c.o, c.grmRef).Update(s, events...); err != nil {
		c.t.Fatal(err)
	}
}

// hourTask is a sequential app whose single task runs for one hour at its
// allocated rate: long enough to overrun a short availability window.
func hourTask(name string) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:         name,
		Kind:         protocol.AppSequential,
		NumTasks:     1,
		WorkPerTask:  3600 * 1000, // 1h at the 1000-MIPS alloc below
		Requirements: resource.Requirements{Min: resource.Vector{MIPS: 500, RAMMB: 16}},
		Alloc:        resource.Vector{MIPS: 1000, RAMMB: 64},
	}
}

func TestWindowAwarePlacementAvoidsShortWindows(t *testing.T) {
	// Two nodes: "short" has more free CPU (best-fit tries it first) but its
	// availability window closes in 10 minutes; "long" stays idle for 3
	// hours. The task needs an hour, so window-aware placement must skip the
	// short node even though it is the better fit.
	setup := func(t *testing.T, opts ...grm.Option) (*cluster, *fakeLRM, *fakeLRM) {
		c := newCluster(t, nil, append([]grm.Option{grm.WithPolicy(grm.BestFit{})}, opts...)...)
		short, shortRef := bindFakeLRM(t, c, "win-short", 0)
		long, longRef := bindFakeLRM(t, c, "win-long", 0)
		now := c.clock.Now()
		c.update(windowStatus(c, "win-short", shortRef, 2000,
			protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(10 * time.Minute), Confidence: 0.9}))
		c.update(windowStatus(c, "win-long", longRef, 1000,
			protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(3 * time.Hour), Confidence: 0.9}))
		return c, short, long
	}

	c, short, long := setup(t, grm.WithWindowAware())
	id := c.submit(hourTask("aware"))
	st := c.status(id)
	if st.Tasks[0].NodeID != "win-long" {
		t.Fatalf("window-aware placement on %q, want win-long", st.Tasks[0].NodeID)
	}
	if short.executeCount() != 0 || long.executeCount() != 1 {
		t.Fatalf("executions: short=%d long=%d, want 0/1", short.executeCount(), long.executeCount())
	}
	if got := c.g.Stats().WindowRejected; got < 1 {
		t.Fatalf("WindowRejected = %d, want >= 1", got)
	}

	// The window-blind control places on the short node: the filter, not
	// offer ordering, is what moved the task.
	cb, shortB, _ := setup(t)
	idb := cb.submit(hourTask("blind"))
	if st := cb.status(idb); st.Tasks[0].NodeID != "win-short" {
		t.Fatalf("window-blind placement on %q, want win-short", st.Tasks[0].NodeID)
	}
	if shortB.executeCount() != 1 {
		t.Fatalf("blind short executions = %d, want 1", shortB.executeCount())
	}
	if got := cb.g.Stats().WindowRejected; got != 0 {
		t.Fatalf("blind WindowRejected = %d, want 0", got)
	}
}

func TestWindowFilterHonorsConfidenceFloor(t *testing.T) {
	// A short window backed by fewer than half the training days is treated
	// as no forecast at all: the preferred node keeps the task.
	c := newCluster(t, nil, grm.WithPolicy(grm.BestFit{}), grm.WithWindowAware())
	_, shortRef := bindFakeLRM(t, c, "low-conf", 0)
	_, longRef := bindFakeLRM(t, c, "backup", 0)
	now := c.clock.Now()
	c.update(windowStatus(c, "low-conf", shortRef, 2000,
		protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(10 * time.Minute), Confidence: 0.3}))
	c.update(windowStatus(c, "backup", longRef, 1000,
		protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(3 * time.Hour), Confidence: 0.9}))

	id := c.submit(hourTask("floor"))
	if st := c.status(id); st.Tasks[0].NodeID != "low-conf" {
		t.Fatalf("placed on %q, want low-conf (forecast below floor ignored)", st.Tasks[0].NodeID)
	}
	if got := c.g.Stats().WindowRejected; got != 0 {
		t.Fatalf("WindowRejected = %d, want 0", got)
	}
}

func TestWindowFilterFallsBackWhenNoWindowFits(t *testing.T) {
	// Every candidate's window is too short: window-aware placement degrades
	// to window-blind rather than stranding the task.
	c := newCluster(t, nil, grm.WithWindowAware())
	only, ref := bindFakeLRM(t, c, "cramped", 0)
	now := c.clock.Now()
	c.update(windowStatus(c, "cramped", ref, 1000,
		protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(10 * time.Minute), Confidence: 1}))

	id := c.submit(hourTask("fallback"))
	st := c.status(id)
	if st.Tasks[0].State != protocol.TaskRunning || st.Tasks[0].NodeID != "cramped" {
		t.Fatalf("fallback placement = %+v, want running on cramped", st.Tasks[0])
	}
	if only.executeCount() != 1 {
		t.Fatalf("executions = %d, want 1", only.executeCount())
	}
}

func TestGangPlacementRequiresOverlappingWindows(t *testing.T) {
	// A 2-process gang running for an hour. The biggest node's window closes
	// in 10 minutes, so both members must land on the two smaller nodes whose
	// windows overlap the full execution interval.
	c := newCluster(t, nil, grm.WithPolicy(grm.BestFit{}), grm.WithWindowAware())
	nodes := map[string]*fakeLRM{}
	for _, n := range []struct {
		id   string
		mips float64
		end  time.Duration
	}{
		{"gang-c", 3000, 10 * time.Minute},
		{"gang-a", 1000, 3 * time.Hour},
		{"gang-b", 1000, 3 * time.Hour},
	} {
		f, ref := bindFakeLRM(t, c, n.id, 1)
		nodes[n.id] = f
		now := c.clock.Now()
		c.update(windowStatus(c, n.id, ref, n.mips,
			protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(n.end), Confidence: 1}))
	}

	id := c.submit(protocol.ApplicationSpec{
		Name:        "gang-win",
		Kind:        protocol.AppBSP,
		NumTasks:    2,
		WorkPerTask: 3600 * 500, // 1h at the 500-MIPS alloc
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 128},
	})
	st := c.status(id)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("gang not fully placed: %+v", st.Tasks)
		}
		if task.NodeID == "gang-c" {
			t.Fatalf("gang member on short-window node: %+v", st.Tasks)
		}
	}
	if nodes["gang-c"].executeCount() != 0 {
		t.Fatalf("short-window node executed %d members", nodes["gang-c"].executeCount())
	}
	if nodes["gang-a"].executeCount() != 1 || nodes["gang-b"].executeCount() != 1 {
		t.Fatalf("executions a=%d b=%d, want 1/1",
			nodes["gang-a"].executeCount(), nodes["gang-b"].executeCount())
	}
}

func TestGracefulDepartureWithdrawsOfferImmediately(t *testing.T) {
	// An announced departure withdraws the node's offer at once — no wait
	// for the heartbeat-miss threshold — and exempts the node from the
	// failure detector until the announced deadline passes.
	c := newCluster(t, nil, grm.WithSuspectAfter(45*time.Second))
	_, ref := bindFakeLRM(t, c, "leaver", 0)
	c.update(windowStatus(c, "leaver", ref, 1000))
	c.clock.Advance(15 * time.Second)
	c.update(windowStatus(c, "leaver", ref, 1000)) // liveness needs >= 2 updates
	if got := c.g.KnownNodes(); got != 1 {
		t.Fatalf("KnownNodes before departure = %d, want 1", got)
	}

	deadline := c.clock.Now().Add(5 * time.Minute)
	c.update(departing(windowStatus(c, "leaver", ref, 1000), deadline))
	if got := c.g.KnownNodes(); got != 0 {
		t.Fatalf("KnownNodes right after departure = %d, want 0 (no wait for the failure detector)", got)
	}
	if got := c.g.Stats().GracefulDepartures; got != 1 {
		t.Fatalf("GracefulDepartures = %d, want 1", got)
	}

	// Heartbeats keep arriving while the owner shuts down: the offer must
	// stay withdrawn.
	c.clock.Advance(15 * time.Second)
	c.update(windowStatus(c, "leaver", ref, 1000))
	if got := c.g.KnownNodes(); got != 0 {
		t.Fatalf("KnownNodes after departing heartbeat = %d, want 0", got)
	}

	// Then silence. Departing is not Suspect: inside the announced deadline
	// the detector must NOT declare the node dead despite 45s of silence.
	c.clock.Advance(3 * time.Minute) // still < deadline
	if got := c.g.Stats().NodesDeclaredDead; got != 0 {
		t.Fatalf("NodesDeclaredDead inside departure deadline = %d, want 0", got)
	}

	// Past the deadline the exemption lapses and the ordinary detector path
	// reclaims the liveness entry.
	c.clock.Advance(5 * time.Minute)
	if got := c.g.Stats().NodesDeclaredDead; got != 1 {
		t.Fatalf("NodesDeclaredDead past deadline = %d, want 1", got)
	}

	// A machine that comes back re-registers like any restarted node.
	c.update(windowStatus(c, "leaver", ref, 1000))
	if got := c.g.KnownNodes(); got != 1 {
		t.Fatalf("KnownNodes after return = %d, want 1", got)
	}
}

func TestDepartingNodeThatStaysResumesOffers(t *testing.T) {
	// The forecast was wrong: the owner never showed up and the LRM kept
	// heartbeating. Once the announced deadline passes, the next update
	// clears the Departing state and re-exports the offer.
	c := newCluster(t, nil, grm.WithSuspectAfter(45*time.Second))
	_, ref := bindFakeLRM(t, c, "stayer", 0)
	c.update(windowStatus(c, "stayer", ref, 1000))
	deadline := c.clock.Now().Add(2 * time.Minute)
	c.update(departing(windowStatus(c, "stayer", ref, 1000), deadline))

	for i := 0; i < 8; i++ { // 2 minutes of 15s heartbeats
		c.clock.Advance(15 * time.Second)
		c.update(windowStatus(c, "stayer", ref, 1000))
		if c.clock.Now().Before(deadline) && c.g.KnownNodes() != 0 {
			t.Fatalf("offer re-exported at %v, before deadline %v", c.clock.Now(), deadline)
		}
	}
	if got := c.g.KnownNodes(); got != 1 {
		t.Fatalf("KnownNodes after deadline passed = %d, want 1", got)
	}
	if got := c.g.Stats().NodesDeclaredDead; got != 0 {
		t.Fatalf("NodesDeclaredDead = %d, want 0 (node never went silent)", got)
	}
}

func TestDrainedTaskMigratesWithExactProgress(t *testing.T) {
	// A drain reports exact progress, so the migrated task resumes from it
	// instead of rolling back to the last checkpoint boundary.
	c := newCluster(t, nil, grm.WithPolicy(grm.BestFit{}))
	_, refA := bindFakeLRM(t, c, "drain-a", 0)
	b, refB := bindFakeLRM(t, c, "drain-b", 0)
	c.update(windowStatus(c, "drain-a", refA, 2000))
	c.update(windowStatus(c, "drain-b", refB, 1000))

	spec := hourTask("migrate")
	spec.CheckpointEveryWork = 300_000
	spec.RestartEvicted = true
	id := c.submit(spec)
	st := c.status(id)
	if st.Tasks[0].NodeID != "drain-a" {
		t.Fatalf("initial placement on %q, want drain-a", st.Tasks[0].NodeID)
	}

	c.update(prompted(windowStatus(c, "drain-a", refA, 2000)), protocol.TaskEvent{
		Kind:     protocol.TaskEventDrained,
		AppID:    id,
		TaskID:   st.Tasks[0].TaskID,
		NodeID:   "drain-a",
		Progress: 500_000,
		At:       c.clock.Now(),
	})
	st = c.status(id)
	if st.Tasks[0].NodeID != "drain-b" || st.Tasks[0].State != protocol.TaskRunning {
		t.Fatalf("after drain: %+v, want running on drain-b", st.Tasks[0])
	}
	if st.Tasks[0].Restarts != 1 {
		t.Fatalf("task restarts = %d, want 1", st.Tasks[0].Restarts)
	}
	if b.executeCount() != 1 {
		t.Fatalf("drain-b executions = %d, want 1", b.executeCount())
	}
	// The migration hand-off carries the drain's exact progress, not the
	// 300k checkpoint boundary an eviction would have rolled back to.
	if got := b.executedAt(0).InitialProgress; got != 500_000 {
		t.Fatalf("migrated InitialProgress = %v, want 500000", got)
	}
	stats := c.g.Stats()
	if stats.TasksDrained != 1 {
		t.Fatalf("TasksDrained = %d, want 1", stats.TasksDrained)
	}
	if stats.DrainWorkSavedMI != 200_000 {
		t.Fatalf("DrainWorkSavedMI = %v, want 200000 (progress past checkpoint)", stats.DrainWorkSavedMI)
	}
	if stats.TasksEvicted != 0 || stats.WorkLostMI != 0 {
		t.Fatalf("drain counted as eviction: evicted=%d lost=%v", stats.TasksEvicted, stats.WorkLostMI)
	}
}

func TestDrainedTaskWithoutRestartIsAbandoned(t *testing.T) {
	c := newCluster(t, nil)
	_, ref := bindFakeLRM(t, c, "drain-norestart", 0)
	other, refOther := bindFakeLRM(t, c, "drain-idle", 0)
	c.update(windowStatus(c, "drain-norestart", ref, 2000))
	c.update(windowStatus(c, "drain-idle", refOther, 1000))
	refs := map[string]orb.ObjectRef{"drain-norestart": ref, "drain-idle": refOther}

	spec := hourTask("abandon") // RestartEvicted unset
	id := c.submit(spec)
	st := c.status(id)

	on := st.Tasks[0].NodeID
	c.update(prompted(windowStatus(c, on, refs[on], 2000)), protocol.TaskEvent{
		Kind:     protocol.TaskEventDrained,
		AppID:    id,
		TaskID:   st.Tasks[0].TaskID,
		NodeID:   st.Tasks[0].NodeID,
		Progress: 400_000,
		At:       c.clock.Now(),
	})
	st = c.status(id)
	if st.Tasks[0].State != protocol.TaskEvicted {
		t.Fatalf("state = %v, want evicted (RestartEvicted unset)", st.Tasks[0].State)
	}
	stats := c.g.Stats()
	if stats.TasksDrained != 1 || stats.WorkLostMI != 400_000 {
		t.Fatalf("drained=%d lost=%v, want 1/400000", stats.TasksDrained, stats.WorkLostMI)
	}
	if other.executeCount() != 0 {
		t.Fatal("abandoned task was requeued")
	}
}

func TestDrainedBSPGangRollsBackToCheckpoint(t *testing.T) {
	// BSP processes resume only from superstep checkpoints: a drained gang
	// member rolls back to the checkpoint boundary (not exact progress) and
	// re-enters pending.
	c := newCluster(t, nil, grm.WithPolicy(grm.BestFit{}))
	fakes := map[string]*fakeLRM{}
	var refA orb.ObjectRef
	for _, n := range []struct {
		id   string
		mips float64
	}{{"bsp-a", 2000}, {"bsp-b", 1500}, {"bsp-c", 1000}} {
		f, ref := bindFakeLRM(t, c, n.id, 1)
		fakes[n.id] = f
		if n.id == "bsp-a" {
			refA = ref
		}
		c.update(windowStatus(c, n.id, ref, n.mips))
	}

	id := c.submit(protocol.ApplicationSpec{
		Name:                "bsp-drain",
		Kind:                protocol.AppBSP,
		NumTasks:            2,
		WorkPerTask:         1_800_000,
		Alloc:               resource.Vector{MIPS: 500, RAMMB: 128},
		CheckpointEveryWork: 300_000,
		RestartEvicted:      true,
	})
	st := c.status(id)
	var drained protocol.TaskStatus
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("gang not placed: %+v", st.Tasks)
		}
		if task.NodeID == "bsp-a" {
			drained = task
		}
	}
	if drained.TaskID == "" {
		t.Fatalf("no gang member on bsp-a: %+v", st.Tasks)
	}

	c.update(prompted(windowStatus(c, "bsp-a", refA, 2000)), protocol.TaskEvent{
		Kind:     protocol.TaskEventDrained,
		AppID:    id,
		TaskID:   drained.TaskID,
		NodeID:   "bsp-a",
		Progress: 350_000,
		At:       c.clock.Now(),
	})
	stats := c.g.Stats()
	if stats.TasksDrained != 1 {
		t.Fatalf("TasksDrained = %d, want 1", stats.TasksDrained)
	}
	// Rollback, not migration: work past the checkpoint is lost, the restart
	// counts as a real restart.
	if stats.WorkLostMI != 50_000 || stats.DrainWorkSavedMI != 0 {
		t.Fatalf("lost=%v saved=%v, want 50000/0", stats.WorkLostMI, stats.DrainWorkSavedMI)
	}
	if stats.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", stats.Restarts)
	}
	// The member was re-placed away from the drained node, resuming from the
	// checkpoint boundary.
	if fakes["bsp-c"].executeCount() != 1 {
		t.Fatalf("bsp-c executions = %d, want 1", fakes["bsp-c"].executeCount())
	}
	if got := fakes["bsp-c"].executedAt(0).InitialProgress; got != 300_000 {
		t.Fatalf("rollback InitialProgress = %v, want 300000", got)
	}
}

func TestWindowStateSurvivesReplication(t *testing.T) {
	// The log carries the membership; availability windows are soft state
	// each node re-tells. Once both nodes' next updates reach it, a successor
	// must make the window-aware placement decision the old leader would have
	// made.
	rs := newReplicaSet(t, 3, grm.WithPolicy(grm.BestFit{}), grm.WithWindowAware())
	c := rs.leader(t)
	_, shortRef := bindFakeLRM(t, c, "repl-short", 0)
	_, longRef := bindFakeLRM(t, c, "repl-long", 0)
	updates := func(c *cluster) {
		now := c.clock.Now()
		c.update(windowStatus(c, "repl-short", shortRef, 2000,
			protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(10 * time.Minute), Confidence: 0.9}))
		c.update(windowStatus(c, "repl-long", longRef, 1000,
			protocol.AvailWindow{Start: now.Add(-time.Minute), End: now.Add(3 * time.Hour), Confidence: 0.9}))
	}
	updates(c)
	rs.clock.Advance(15 * time.Second)

	next := rs.failover(t, rs.leaderIdx(t))
	if got := grm.Members(next); len(got) != 2 {
		t.Fatalf("successor members = %v, want both nodes", got)
	}
	succ := &cluster{t: t, clock: rs.clock, o: rs.o, g: next, grmRef: rs.refs[slices.Index(rs.grms, next)]}
	updates(succ)
	if got := succ.g.KnownNodes(); got != 2 {
		t.Fatalf("successor KnownNodes = %d, want 2", got)
	}
	id, err := next.Submit(hourTask("post-failover"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := next.AppStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks[0].NodeID != "repl-long" {
		t.Fatalf("successor placed on %q, want repl-long", st.Tasks[0].NodeID)
	}
	if got := next.Stats().WindowRejected; got < 1 {
		t.Fatalf("successor WindowRejected = %d, want >= 1", got)
	}
}

func TestDepartureMirroredToStandby(t *testing.T) {
	// The followers — each a standby for the leader — mirror the membership
	// and a graceful withdrawal's deadline: a successor must not re-export a
	// node that said goodbye. The leader withdraws its offer.
	rs := newReplicaSet(t, 3)
	c := rs.leader(t)
	_, refA := bindFakeLRM(t, c, "mirror-a", 0)
	_, refB := bindFakeLRM(t, c, "mirror-b", 0)
	c.update(windowStatus(c, "mirror-a", refA, 1000))
	c.update(windowStatus(c, "mirror-b", refB, 1000))
	rs.clock.Advance(15 * time.Second)
	members := map[string]time.Time{"mirror-a": {}, "mirror-b": {}}
	for i, g := range rs.grms {
		if got := grm.Members(g); !maps.Equal(got, members) {
			t.Fatalf("m%d members %v, want %v", i, got, members)
		}
	}
	if got := c.g.KnownNodes(); got != 2 {
		t.Fatalf("leader KnownNodes = %d, want 2", got)
	}

	deadline := c.clock.Now().Add(10 * time.Minute)
	c.update(departing(windowStatus(c, "mirror-a", refA, 1000), deadline))
	rs.clock.Advance(15 * time.Second)
	members["mirror-a"] = deadline.UTC()
	for i, g := range rs.grms {
		if got := grm.Members(g); !maps.Equal(got, members) {
			t.Fatalf("m%d members after the departure %v, want %v", i, got, members)
		}
	}
	if got := c.g.KnownNodes(); got != 1 {
		t.Fatalf("leader KnownNodes after the departure = %d, want 1", got)
	}
}

// TestDepartureSurvivesFailover: a departure is replicated as a departure,
// not as a death. A successor elected inside the announced window keeps the
// node's offer withdrawn while it heartbeats, and re-registers it once the
// deadline has passed.
func TestDepartureSurvivesFailover(t *testing.T) {
	rs := newReplicaSet(t, 3)
	c := rs.leader(t)
	_, ref := bindFakeLRM(t, c, "leaver", 0)
	c.update(windowStatus(c, "leaver", ref, 1000))
	deadline := c.clock.Now().Add(10 * time.Minute)
	c.update(departing(windowStatus(c, "leaver", ref, 1000), deadline))
	rs.clock.Advance(15 * time.Second)

	next := rs.failover(t, rs.leaderIdx(t))
	succ := &cluster{t: t, clock: rs.clock, o: rs.o, g: next, grmRef: rs.refs[slices.Index(rs.grms, next)]}
	for succ.clock.Now().Before(deadline) {
		succ.update(windowStatus(succ, "leaver", ref, 1000))
		if got := succ.g.KnownNodes(); got != 0 {
			t.Fatalf("successor exported the departing node at %v, before its deadline %v", succ.clock.Now(), deadline)
		}
		rs.clock.Advance(15 * time.Second)
	}
	succ.update(windowStatus(succ, "leaver", ref, 1000))
	if got := succ.g.KnownNodes(); got != 1 {
		t.Fatalf("KnownNodes after the deadline = %d, want 1", got)
	}
}

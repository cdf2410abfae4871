package grm_test

import (
	"fmt"
	"testing"
	"time"

	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

var linux = resource.Platform{Arch: "amd64", OS: "linux"}

// cluster is a test harness: one GRM plus N LRMs over the loopback ORB,
// driven by a virtual clock.
type cluster struct {
	t      *testing.T
	clock  *sim.VirtualClock
	o      *orb.ORB
	g      *grm.GRM
	grmRef orb.ObjectRef
	lrms   []*lrm.LRM
	nodes  []*node.Node
}

type nodeSpec struct {
	mips      float64
	lan       string
	dedicated bool
	profile   *usage.Profile
	policy    *ncc.Policy
}

func newCluster(t *testing.T, specs []nodeSpec, grmOpts ...grm.Option) *cluster {
	t.Helper()
	clock := sim.NewVirtualClock()
	o := orb.New()
	c := &cluster{t: t, clock: clock, o: o}

	g := grm.New("test", clock, o, append([]grm.Option{
		grm.WithSchedulePeriod(15 * time.Second),
	}, grmOpts...)...)
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("mgr", adapter)
	if err != nil {
		t.Fatal(err)
	}
	c.g = g
	c.grmRef = orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}
	g.Start()
	t.Cleanup(g.Stop)

	for i, s := range specs {
		id := fmt.Sprintf("node-%d", i)
		spec := resource.MachineSpec{
			Platform:  linux,
			Capacity:  resource.Vector{MIPS: s.mips, RAMMB: 1024, DiskMB: 10240, NetMbps: 100},
			LANID:     s.lan,
			Dedicated: s.dedicated,
		}
		if spec.LANID == "" {
			spec.LANID = "lan0"
		}
		var trace *usage.Trace
		if !s.dedicated && s.profile != nil {
			trace = usage.NewTrace(*s.profile, int64(100+i))
		}
		pol := ncc.Generous()
		if s.policy != nil {
			pol = *s.policy
		}
		n, err := node.New(id, spec, trace, pol, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		nodeAdapter := orb.NewAdapter()
		nodeEP, err := o.BindLoopback(id, nodeAdapter)
		if err != nil {
			t.Fatal(err)
		}
		selfRef := orb.ObjectRef{Endpoint: nodeEP, Key: protocol.LRMKey}
		l := lrm.New(n, clock, o, selfRef, c.grmRef,
			lrm.WithUpdatePeriod(15*time.Second))
		if err := nodeAdapter.Register(protocol.LRMKey, l.Servant()); err != nil {
			t.Fatal(err)
		}
		l.Start()
		t.Cleanup(l.Stop)
		l.SendUpdate() // prime the trader
		c.lrms = append(c.lrms, l)
		c.nodes = append(c.nodes, n)
	}
	return c
}

func dedicated(n int, mips float64) []nodeSpec {
	specs := make([]nodeSpec, n)
	for i := range specs {
		specs[i] = nodeSpec{mips: mips, dedicated: true}
	}
	return specs
}

func (c *cluster) submit(spec protocol.ApplicationSpec) string {
	c.t.Helper()
	client := protocol.NewGRMClient(c.o, c.grmRef)
	id, err := client.Submit(spec)
	if err != nil {
		c.t.Fatal(err)
	}
	return id
}

func (c *cluster) status(appID string) protocol.AppStatus {
	c.t.Helper()
	st, err := c.g.AppStatus(appID)
	if err != nil {
		c.t.Fatal(err)
	}
	return st
}

func TestInformationUpdateProtocol(t *testing.T) {
	c := newCluster(t, dedicated(5, 1000))
	if got := c.g.KnownNodes(); got != 5 {
		t.Fatalf("KnownNodes after priming = %d, want 5", got)
	}
	// Updates keep flowing.
	c.clock.Advance(2 * time.Minute)
	stats := c.g.Stats()
	// 5 primes + 5 nodes * 8 periodic updates (every 15s over 2 min).
	if stats.UpdatesReceived < 40 {
		t.Fatalf("UpdatesReceived = %d, want >= 40", stats.UpdatesReceived)
	}
	// Stop all LRMs: offers age out after the TTL.
	for _, l := range c.lrms {
		l.Stop()
	}
	c.clock.Advance(3 * time.Minute) // default TTL 90s
	if got := c.g.KnownNodes(); got != 0 {
		t.Fatalf("KnownNodes after silence = %d, want 0", got)
	}
}

func TestSequentialAppRunsToCompletion(t *testing.T) {
	c := newCluster(t, dedicated(3, 1000))
	// 1000-MIPS dedicated node: 600k MI = 10 minutes.
	id := c.submit(protocol.ApplicationSpec{
		Name:         "seq",
		Kind:         protocol.AppSequential,
		NumTasks:     1,
		WorkPerTask:  600_000,
		Requirements: resource.Requirements{Min: resource.Vector{MIPS: 500, RAMMB: 16}},
		Alloc:        resource.Vector{MIPS: 1000, RAMMB: 64},
	})
	st := c.status(id)
	if st.Tasks[0].State != protocol.TaskRunning {
		t.Fatalf("task state right after submit = %v, want running", st.Tasks[0].State)
	}
	c.clock.Advance(15 * time.Minute)
	st = c.status(id)
	if !st.Done() {
		t.Fatalf("app not done after 15 min: %+v", st.Tasks)
	}
	if st.Finished.IsZero() {
		t.Fatal("Finished not set")
	}
	if st.Negotiations < 1 {
		t.Fatal("no negotiation rounds recorded")
	}
}

func TestReservationProtocolRetriesOnRefusal(t *testing.T) {
	// Two nodes: node-0 has far more free CPU so best-fit tries it first,
	// but its ledger is pre-filled so it refuses; the GRM must fall through
	// to node-1.
	c := newCluster(t, []nodeSpec{
		{mips: 2000, dedicated: true},
		{mips: 1000, dedicated: true},
	}, grm.WithPolicy(grm.BestFit{}))
	// Fill node-0 completely.
	now := c.clock.Now()
	res, err := c.nodes[0].Ledger().Reserve(
		c.nodes[0].Ledger().Capacity(), "blocker", now, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[0].Ledger().Commit(res.ID, now); err != nil {
		t.Fatal(err)
	}
	// Refresh offers so the trader still *thinks* node-0 is free (stale
	// hint): prime sent before the block, so keep the stale offer.
	id := c.submit(protocol.ApplicationSpec{
		Name:        "retry",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	st := c.status(id)
	if st.Tasks[0].NodeID != "node-1" {
		t.Fatalf("task placed on %q, want node-1 after refusal", st.Tasks[0].NodeID)
	}
	if st.Negotiations < 2 {
		t.Fatalf("Negotiations = %d, want >= 2 (refusal then success)", st.Negotiations)
	}
	if c.g.Stats().Refusals < 1 {
		t.Fatal("no refusal recorded")
	}
}

func TestParametricAppQueuesWhenClusterFull(t *testing.T) {
	// One 1000-MIPS node, four tasks of 500 MIPS each: two run at a time
	// (RAM also limits), the rest queue and finish later.
	c := newCluster(t, dedicated(1, 1000))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "sweep",
		Kind:        protocol.AppParametric,
		NumTasks:    4,
		WorkPerTask: 300_000, // at 500 MIPS: 10 min each
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 256},
	})
	st := c.status(id)
	running := 0
	for _, task := range st.Tasks {
		if task.State == protocol.TaskRunning {
			running++
		}
	}
	if running != 2 {
		t.Fatalf("running right after submit = %d, want 2", running)
	}
	c.clock.Advance(90 * time.Minute)
	st = c.status(id)
	if !st.Done() {
		t.Fatalf("sweep not done after 90 min: %+v", st.Tasks)
	}
}

func TestEvictionAndCheckpointRestart(t *testing.T) {
	// node-0 runs an office-worker trace in idle-only mode: grid work gets
	// evicted at 09:00. node-1 is dedicated, so the restarted task can
	// finish there from its checkpoint.
	idleOnly := ncc.Policy{Mode: ncc.ModeIdleOnly, CPUFraction: 1, RAMFraction: 0.9, IdleAfter: 5 * time.Minute}
	office := usage.OfficeWorker
	c := newCluster(t, []nodeSpec{
		{mips: 4000, profile: &office, policy: &idleOnly},
		{mips: 500, dedicated: true},
	}, grm.WithPolicy(grm.BestFit{})) // best-fit prefers the big office node
	// Advance to 04:00 so the office node is idle and reporting free.
	c.clock.Advance(4 * time.Hour)

	// Task needs 3 hours on the office node (4000 MIPS), so it cannot
	// finish before 09:00 when submitted at 04:00... checkpoint every
	// "30 min of office-node work".
	id := c.submit(protocol.ApplicationSpec{
		Name:                "ckpt",
		Kind:                protocol.AppSequential,
		NumTasks:            1,
		WorkPerTask:         6 * 3600 * 4000, // 24h at 1000... see alloc below
		Alloc:               resource.Vector{MIPS: 4000, RAMMB: 64},
		CheckpointEveryWork: 1800 * 4000, // every 30 min at full speed
		RestartEvicted:      true,
	})
	st := c.status(id)
	if st.Tasks[0].NodeID != "node-0" {
		t.Fatalf("initial placement on %q, want node-0", st.Tasks[0].NodeID)
	}
	// By 10:00 the owner is back: the task must have been evicted and
	// requeued (node-1 is too small for a 4000-MIPS alloc... so it stays
	// pending until node-0 idles again).
	c.clock.Advance(7 * time.Hour) // now 11:00
	stats := c.g.Stats()
	if stats.TasksEvicted < 1 {
		t.Fatal("no eviction by 11:00")
	}
	if stats.Restarts < 1 {
		t.Fatal("evicted task not requeued")
	}
	st = c.status(id)
	if st.Tasks[0].Restarts < 1 {
		t.Fatalf("task restarts = %d", st.Tasks[0].Restarts)
	}
	// Work lost is bounded by one checkpoint interval per eviction.
	maxLost := float64(stats.TasksEvicted) * 1800 * 4000
	if stats.WorkLostMI > maxLost {
		t.Fatalf("WorkLostMI = %v, want <= %v", stats.WorkLostMI, maxLost)
	}
}

func TestBSPGangAllOrNothing(t *testing.T) {
	// 3 dedicated nodes, each fitting one 500-MIPS process: a 4-process
	// BSP app must NOT start partially.
	c := newCluster(t, dedicated(3, 600))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "bsp4",
		Kind:        protocol.AppBSP,
		NumTasks:    4,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 128},
	})
	st := c.status(id)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskPending {
			t.Fatalf("gang partially placed: %+v", st.Tasks)
		}
	}
	// A 3-process app fits and completes.
	id3 := c.submit(protocol.ApplicationSpec{
		Name:        "bsp3",
		Kind:        protocol.AppBSP,
		NumTasks:    3,
		WorkPerTask: 60_000, // 2 min at 500 MIPS
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 128},
	})
	st = c.status(id3)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("bsp3 not fully running: %+v", st.Tasks)
		}
	}
	c.clock.Advance(10 * time.Minute)
	if !c.status(id3).Done() {
		t.Fatal("bsp3 not done")
	}
}

func TestUsageAwareAvoidsBusyNodes(t *testing.T) {
	// One always-busy shared node with huge capacity, one modest dedicated
	// node. Usage-aware should pick the dedicated node even though best-fit
	// would pick the bigger one.
	busy := usage.AlwaysBusy
	shared := ncc.Policy{Mode: ncc.ModeShared, CPUFraction: 1, RAMFraction: 0.9, IdleAfter: time.Minute}
	c := newCluster(t, []nodeSpec{
		{mips: 8000, profile: &busy, policy: &shared},
		{mips: 1000, dedicated: true},
	}, grm.WithPolicy(grm.UsageAware{}))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "careful",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	st := c.status(id)
	if st.Tasks[0].NodeID != "node-1" {
		t.Fatalf("usage-aware placed on %q, want dedicated node-1", st.Tasks[0].NodeID)
	}
}

func TestTopologyPlacementTwoLANs(t *testing.T) {
	// The paper's request, scaled down: two groups of 3, 100 Mbps inside,
	// 10 Mbps between. Cluster: 2 LANs with 4 nodes each.
	specs := make([]nodeSpec, 0, 8)
	for i := 0; i < 4; i++ {
		specs = append(specs, nodeSpec{mips: 1000, lan: "lanA", dedicated: true})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, nodeSpec{mips: 1000, lan: "lanB", dedicated: true})
	}
	c := newCluster(t, specs, grm.WithBackbone(10))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "topo",
		Kind:        protocol.AppBSP,
		NumTasks:    6,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 800, RAMMB: 64},
		Topology: &protocol.TopologyRequest{
			Groups:    []protocol.TopologyGroup{{Nodes: 3, IntraMbps: 100}, {Nodes: 3, IntraMbps: 100}},
			InterMbps: 10,
		},
	})
	st := c.status(id)
	lanOf := func(nodeID string) string {
		for _, n := range c.nodes {
			if n.ID() == nodeID {
				return n.Spec().LANID
			}
		}
		return ""
	}
	lans := make(map[string]int)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("topology app not fully running: %+v", st.Tasks)
		}
		lans[lanOf(task.NodeID)]++
	}
	// Groups of 3 must not straddle LANs: each LAN hosts a multiple of 3.
	for lan, n := range lans {
		if n%3 != 0 {
			t.Fatalf("LAN %s hosts %d processes; groups split across LANs", lan, n)
		}
	}
}

func TestTopologyRejectedWhenBackboneTooSlow(t *testing.T) {
	// Groups cannot fit in one LAN and the backbone is below InterMbps:
	// the request must stay pending.
	specs := []nodeSpec{
		{mips: 1000, lan: "lanA", dedicated: true},
		{mips: 1000, lan: "lanA", dedicated: true},
		{mips: 1000, lan: "lanB", dedicated: true},
		{mips: 1000, lan: "lanB", dedicated: true},
	}
	c := newCluster(t, specs, grm.WithBackbone(1)) // 1 Mbps backbone
	id := c.submit(protocol.ApplicationSpec{
		Name:        "topo-slow",
		Kind:        protocol.AppBSP,
		NumTasks:    4,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 800, RAMMB: 64},
		Topology: &protocol.TopologyRequest{
			Groups:    []protocol.TopologyGroup{{Nodes: 2, IntraMbps: 100}, {Nodes: 2, IntraMbps: 100}},
			InterMbps: 10,
		},
	})
	st := c.status(id)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskPending {
			t.Fatalf("slow-backbone topology app started: %+v", st.Tasks)
		}
	}
	if c.g.Stats().PlacementFailures < 1 {
		t.Fatal("no placement failure recorded")
	}
}

func TestAppStatusOverWire(t *testing.T) {
	c := newCluster(t, dedicated(1, 1000))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "wire",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	})
	client := protocol.NewGRMClient(c.o, c.grmRef)
	st, err := client.AppStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppID != id || len(st.Tasks) != 1 {
		t.Fatalf("AppStatus over wire = %+v", st)
	}
	if _, err := client.AppStatus("ghost"); err == nil {
		t.Fatal("unknown app over wire succeeded")
	}
}

func TestUnplaceableAppReportsFailure(t *testing.T) {
	c := newCluster(t, dedicated(1, 100))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "huge",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 1000,
		Alloc:       resource.Vector{MIPS: 99_999, RAMMB: 64},
	})
	st := c.status(id)
	if st.Tasks[0].State != protocol.TaskPending {
		t.Fatalf("impossible task state = %v", st.Tasks[0].State)
	}
	if c.g.Stats().PlacementFailures < 1 {
		t.Fatal("no placement failure recorded")
	}
}

func TestSubmitValidatesSpec(t *testing.T) {
	c := newCluster(t, dedicated(1, 1000))
	_, err := c.g.Submit(protocol.ApplicationSpec{Name: ""})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestCancelAppStopsRunningAndPending(t *testing.T) {
	c := newCluster(t, dedicated(2, 1000))
	id := c.submit(protocol.ApplicationSpec{
		Name:        "victim",
		Kind:        protocol.AppParametric,
		NumTasks:    6, // 4 run (2 per node by RAM), 2 queue
		WorkPerTask: 1e9,
		Alloc:       resource.Vector{MIPS: 400, RAMMB: 512},
	})
	st := c.status(id)
	running, pending := 0, 0
	for _, task := range st.Tasks {
		switch task.State {
		case protocol.TaskRunning:
			running++
		case protocol.TaskPending:
			pending++
		}
	}
	if running == 0 || pending == 0 {
		t.Fatalf("want a mix of running and pending, got %d/%d", running, pending)
	}
	client := protocol.NewGRMClient(c.o, c.grmRef)
	if err := client.CancelApp(id); err != nil {
		t.Fatal(err)
	}
	if err := client.CancelApp("ghost"); err == nil {
		t.Fatal("cancel of unknown app succeeded")
	}
	st = c.status(id)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskCancelled {
			t.Fatalf("task %s state = %v after cancel", task.TaskID, task.State)
		}
	}
	// The nodes are actually free again: the pending queue no longer holds
	// the app, and new work can claim full capacity.
	for _, n := range c.nodes {
		if got := len(n.RunningTasks()); got != 0 {
			t.Fatalf("node %s still runs %d tasks after cancel", n.ID(), got)
		}
	}
	// Scheduler passes must not resurrect cancelled tasks.
	c.clock.Advance(5 * time.Minute)
	st = c.status(id)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskCancelled {
			t.Fatalf("task %s resurrected to %v", task.TaskID, task.State)
		}
	}
	if c.g.Stats().AppsCancelled != 1 {
		t.Fatalf("AppsCancelled = %d", c.g.Stats().AppsCancelled)
	}
}

func TestFailedGangReleasesReservationsImmediately(t *testing.T) {
	// Three nodes can host one 500-MIPS proc each; a 5-proc gang cannot be
	// placed. The partial grants must be released at once so a 3-proc gang
	// submitted immediately afterwards (same instant, no TTL expiry) fits.
	c := newCluster(t, dedicated(3, 600))
	big := c.submit(protocol.ApplicationSpec{
		Name:        "too-big",
		Kind:        protocol.AppBSP,
		NumTasks:    5,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 128},
	})
	st := c.status(big)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskPending {
			t.Fatalf("oversized gang partially placed: %+v", st.Tasks)
		}
	}
	// Without advancing the clock, the follow-up gang must succeed.
	fit := c.submit(protocol.ApplicationSpec{
		Name:        "fits",
		Kind:        protocol.AppBSP,
		NumTasks:    3,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 128},
	})
	st = c.status(fit)
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("follow-up gang blocked by stale reservations: %+v", st.Tasks)
		}
	}
	// Ledgers carry no leftover holds beyond the running tasks.
	now := c.clock.Now()
	for _, n := range c.nodes {
		if got := len(n.Ledger().Outstanding(now)); got != 0 {
			t.Fatalf("node %s has %d outstanding reservations", n.ID(), got)
		}
	}
}

func TestConstraintExpressionFiltersNodes(t *testing.T) {
	// Two LANs; the user constraint pins the app to lanB.
	c := newCluster(t, []nodeSpec{
		{mips: 1000, lan: "lanA", dedicated: true},
		{mips: 1000, lan: "lanB", dedicated: true},
	})
	id := c.submit(protocol.ApplicationSpec{
		Name:        "pinned",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 60_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
		Constraint:  "lan == 'lanB'",
	})
	st := c.status(id)
	if st.Tasks[0].NodeID != "node-1" {
		t.Fatalf("placed on %q despite lan constraint", st.Tasks[0].NodeID)
	}
}

func TestFailureDetectorReschedulesSilentCrash(t *testing.T) {
	// Two dedicated nodes; the task's node goes silent (no eviction notice,
	// no further heartbeats — a pulled power cord). The heartbeat-miss
	// detector must declare it dead, withdraw its offer, and reschedule the
	// task on the survivor from its last checkpoint boundary.
	c := newCluster(t, dedicated(2, 1000),
		grm.WithSuspectAfter(45*time.Second))
	id := c.submit(protocol.ApplicationSpec{
		Name:                "silent",
		Kind:                protocol.AppSequential,
		NumTasks:            1,
		WorkPerTask:         20 * 60 * 1000, // 20 min at 1000 MIPS
		Alloc:               resource.Vector{MIPS: 900, RAMMB: 64},
		CheckpointEveryWork: 2 * 60 * 1000, // every 2 min
		RestartEvicted:      true,
	})
	st := c.status(id)
	if st.Tasks[0].State != protocol.TaskRunning {
		t.Fatalf("task not placed: %+v", st.Tasks[0])
	}
	victim := st.Tasks[0].NodeID

	// Let it run past a checkpoint, then crash its LRM silently.
	c.clock.Advance(5 * time.Minute)
	for i, l := range c.lrms {
		if c.nodes[i].ID() == victim {
			l.Stop()
		}
	}
	// Detector threshold 45s + schedule period 15s: well within 3 minutes.
	c.clock.Advance(3 * time.Minute)
	stats := c.g.Stats()
	if stats.NodesDeclaredDead != 1 {
		t.Fatalf("NodesDeclaredDead = %d, want 1", stats.NodesDeclaredDead)
	}
	if stats.TasksPresumedLost != 1 {
		t.Fatalf("TasksPresumedLost = %d, want 1", stats.TasksPresumedLost)
	}
	st = c.status(id)
	if st.Tasks[0].NodeID == victim {
		t.Fatalf("task still on dead node %q", victim)
	}
	if st.Tasks[0].Restarts < 1 {
		t.Fatalf("task restarts = %d, want >= 1", st.Tasks[0].Restarts)
	}
	// Rollback is bounded by one checkpoint interval.
	if stats.WorkLostMI > 2*60*1000 {
		t.Fatalf("WorkLostMI = %v, want <= one interval", stats.WorkLostMI)
	}
	// The survivor finishes the remaining work.
	c.clock.Advance(25 * time.Minute)
	if !c.status(id).Done() {
		t.Fatalf("app not done after reschedule: %+v", c.status(id).Tasks)
	}
}

func TestFailureDetectorRollsBackGangTogether(t *testing.T) {
	// A 3-process BSP gang on 4 nodes. When one member's node dies
	// silently, the survivors are stuck at the next barrier: the detector
	// must cancel them and roll the whole gang back to a common checkpoint,
	// then replace all three on the remaining nodes.
	c := newCluster(t, dedicated(4, 600),
		grm.WithSuspectAfter(45*time.Second))
	id := c.submit(protocol.ApplicationSpec{
		Name:                "gang",
		Kind:                protocol.AppBSP,
		NumTasks:            3,
		WorkPerTask:         10 * 60 * 600, // 10 min at 600 MIPS
		Alloc:               resource.Vector{MIPS: 500, RAMMB: 128},
		CheckpointEveryWork: 60 * 600, // every minute
		RestartEvicted:      true,
	})
	st := c.status(id)
	victim := ""
	for _, task := range st.Tasks {
		if task.State != protocol.TaskRunning {
			t.Fatalf("gang not fully placed: %+v", st.Tasks)
		}
		victim = task.NodeID
	}

	c.clock.Advance(3 * time.Minute)
	for i, l := range c.lrms {
		if c.nodes[i].ID() == victim {
			l.Stop()
		}
	}
	c.clock.Advance(3 * time.Minute)
	stats := c.g.Stats()
	if stats.NodesDeclaredDead != 1 {
		t.Fatalf("NodesDeclaredDead = %d, want 1", stats.NodesDeclaredDead)
	}
	st = c.status(id)
	for _, task := range st.Tasks {
		if task.Restarts < 1 {
			t.Fatalf("gang member %s not rolled back: %+v", task.TaskID, task)
		}
		if task.NodeID == victim && task.State == protocol.TaskRunning {
			t.Fatalf("task still running on dead node: %+v", task)
		}
	}
	// The gang re-placed on the three surviving nodes finishes.
	c.clock.Advance(15 * time.Minute)
	if !c.status(id).Done() {
		t.Fatalf("gang not done after rollback: %+v", c.status(id).Tasks)
	}
}

func TestFailureDetectorAdaptiveThresholdTolerantOfSlowCadence(t *testing.T) {
	// A node updating every 5 minutes must NOT be declared dead by the
	// adaptive threshold (3x its cadence), even though that is far beyond
	// the default offer TTL.
	c := newCluster(t, dedicated(1, 1000))
	// Replace the default 15s cadence: stop the LRM's timers and heartbeat
	// manually every 5 minutes.
	c.lrms[0].Stop()
	for i := 0; i < 6; i++ {
		c.clock.Advance(5 * time.Minute)
		c.lrms[0].SendUpdate()
	}
	if got := c.g.Stats().NodesDeclaredDead; got != 0 {
		t.Fatalf("slow-cadence node declared dead %d times", got)
	}
	// Going silent for 3x the cadence does trip it.
	c.clock.Advance(16 * time.Minute)
	if got := c.g.Stats().NodesDeclaredDead; got != 1 {
		t.Fatalf("NodesDeclaredDead = %d after prolonged silence, want 1", got)
	}
}

func sequentialSpec(name string, work float64) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:         name,
		Kind:         protocol.AppSequential,
		NumTasks:     1,
		WorkPerTask:  work,
		Requirements: resource.Requirements{Min: resource.Vector{MIPS: 500, RAMMB: 16}},
		Alloc:        resource.Vector{MIPS: 1000, RAMMB: 64},
	}
}

// TestReconcileReapsOrphans drives the post-registration reconcile exchange
// through the protocol client: claims the GRM knows as running on that node
// survive, everything else comes back as an orphan to cancel.
func TestReconcileReapsOrphans(t *testing.T) {
	c := newCluster(t, dedicated(1, 1000))
	id := c.submit(sequentialSpec("app", 600_000))
	st := c.status(id)
	if st.Tasks[0].State != protocol.TaskRunning {
		t.Fatalf("task not running: %+v", st.Tasks[0])
	}
	client := protocol.NewGRMClient(c.o, c.grmRef)
	orphans, err := client.Reconcile(protocol.ReconcileRequest{
		NodeID: "node-0",
		Claims: []protocol.TaskClaim{
			{TaskID: st.Tasks[0].TaskID, AppID: id}, // genuinely running here
			{TaskID: "ghost-1", AppID: id},          // unknown task
			{TaskID: "ghost-2", AppID: "no-such"},   // unknown app
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 2 || orphans[0] != "ghost-1" || orphans[1] != "ghost-2" {
		t.Fatalf("orphans = %v", orphans)
	}
	if got := c.g.Stats().TasksReconciled; got != 2 {
		t.Fatalf("TasksReconciled = %d, want 2", got)
	}

	// A claim from the wrong node is an orphan too: the task runs on node-0,
	// so node-1 claiming it must be told to cancel.
	orphans, err = client.Reconcile(protocol.ReconcileRequest{
		NodeID: "node-1",
		Claims: []protocol.TaskClaim{{TaskID: st.Tasks[0].TaskID, AppID: id}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 {
		t.Fatalf("wrong-node claim not reaped: %v", orphans)
	}
}

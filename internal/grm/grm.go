package grm

import (
	"cmp"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/election"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// Defaults for GRM tunables.
const (
	// DefaultSchedulePeriod is the pending-task scheduling cadence.
	DefaultSchedulePeriod = 30 * time.Second
	// DefaultMaxAttempts bounds negotiation rounds per task of a placement.
	DefaultMaxAttempts = 8
	// NodeStatusType is the trader service type for LRM offers, the one
	// type the trader holds. Nothing in the GRM names it: it is kept only
	// because benchmark/ queries with it.
	NodeStatusType = "NodeStatus"
)

// Stats are cumulative GRM counters for experiments.
type Stats struct {
	UpdatesReceived   int
	Submissions       int
	TasksPlaced       int
	PlacementFailures int // tasks a negotiation left pending
	NegotiationRounds int // reserve RPCs issued; one may obtain several holds
	Refusals          int // reserve RPCs that obtained no hold
	TasksDone         int
	TasksEvicted      int
	Restarts          int
	WorkLostMI        float64 // progress lost to evictions (beyond checkpoints)
	AppsCancelled     int
	NodesDeclaredDead int // nodes evicted by the heartbeat-miss detector
	Members           int // nodes known from an update or the log (gauge)
	TasksPresumedLost int // running tasks rescheduled or abandoned by the detector
	ReplicaBatches    int // replication batches applied while follower
	Promotions        int // follower → leader transitions
	TasksReconciled   int // orphan tasks reaped via LRM reconciliation
	// Consensus-mode counters.
	QuorumBatches         int // batches committed through the replicated log
	ReplicaDecodeFailures int // corrupt log entries dropped instead of applied
	UpdatesRefused        int // information updates refused while not leader
	// Admission pipeline counters.
	AdmissionQueued     int // submissions accepted into the admission queue
	AdmissionRejected   int // submissions refused with ErrAdmissionFull
	AdmissionQueueDepth int // current queue depth (gauge)
	AdmissionPeakDepth  int // high-water mark of the queue depth
	SchedulerBatches    int // admission batches drained by the matcher
	MaxBatchSize        int // largest batch drained so far
	SnapshotHits        int // candidate queries served from a batch snapshot
	SnapshotMisses      int // candidate queries that hit the trader
	// Availability-window / graceful-departure counters.
	GracefulDepartures int     // departures started by an update announcing a deadline (fast-path withdrawals)
	TasksDrained       int     // tasks handed back by a draining node before it left
	DrainWorkSavedMI   float64 // progress past the last checkpoint preserved by drains
	WindowRejected     int     // candidate offers skipped: window too short for the task
}

// nodeLiveness is the failure detector's record of one node's heartbeats.
type nodeLiveness struct {
	lastSeen time.Time
	interval time.Duration // most recently observed update gap
	updates  int
	// status is the node's latest NodeStatus, without its windows, which
	// only that update's export reads (zero on a follower).
	status protocol.NodeStatus
	// place is where the node's offer sits in the trader, for its updates to
	// upsert through; zero until the offer is exported by reference, and again
	// once a departure, a death or a move to a new reference takes it.
	place trading.Place
	// departUntil, when set, marks a node whose update announced a graceful
	// departure: its trader offer is withdrawn, exports are suppressed until
	// an update arrives past the deadline, and the failure detector leaves it
	// alone until then (Departing is not Suspect).
	departUntil time.Time
}

// taskInfo is the GRM-side record of one task.
type taskInfo struct {
	id              string
	state           protocol.TaskState
	nodeID          string
	lrm             orb.ObjectRef
	progress        float64
	work            float64
	restarts        int
	initialProgress float64
}

// appInfo is the GRM-side record of one application.
type appInfo struct {
	id string
	// seq is the submission sequence the ID was drawn from: the order
	// SchedulePending serves applications in.
	seq  int
	spec protocol.ApplicationSpec
	// constraint is buildConstraint(spec), rendered once: every scheduling
	// pass looks every task's candidates up by it.
	constraint   string
	tasks        []*taskInfo
	submitted    time.Time
	finished     time.Time
	negotiations int
}

func isPending(t *taskInfo) bool { return t.state == protocol.TaskPending }

// runsOn reports whether the task is running on the node.
func (t *taskInfo) runsOn(nodeID string) bool {
	return t.state == protocol.TaskRunning && t.nodeID == nodeID
}

// task returns the app's task with the ID, or nil.
func (a *appInfo) task(id []byte) *taskInfo {
	for _, t := range a.tasks {
		if t.id == string(id) {
			return t
		}
	}
	return nil
}

// pendingTasks returns the app's pending tasks in task order: a.tasks itself
// when every one is, as a new application's are. A record's tasks are fixed
// when it is made, and the caller must not modify the slice.
func (a *appInfo) pendingTasks() []*taskInfo {
	n := 0
	for _, t := range a.tasks {
		if isPending(t) {
			n++
		}
	}
	if n == len(a.tasks) {
		return a.tasks
	}
	out := make([]*taskInfo, 0, n)
	for _, t := range a.tasks {
		if isPending(t) {
			out = append(out, t)
		}
	}
	return out
}

// GRM is the cluster's Global Resource Manager.
type GRM struct {
	clusterID string
	clock     sim.Clock
	inv       orb.Invoker
	trader    *trading.Service
	policy    Policy
	rng       *sim.RNG
	log       *slog.Logger

	schedPeriod  time.Duration
	maxAttempts  int
	backboneMbps float64
	suspectAfter time.Duration // fixed detector threshold; 0 = adaptive
	windowAware  bool          // filter candidates by availability windows
	onEviction   func(appID string)

	// mu guards apps, nodes, seq, stats, stopped, started, sched, adopt, role,
	// repl, pending, epoch, elect, self, the admission-queue fields (admitQ,
	// draining, drainDone, drainerRunning) and matchScratch; apps, nodes
	// and admitQ are written only by the transitions in state.go. It must be
	// released before any protocol RPC (Reserve/Execute/...): negotiation
	// blocks on remote LRMs and may itself re-enter the GRM. The replication
	// stream obeys the same rule: it proposes to the log with no GRM lock held.
	// The in-process trader's writes are not RPCs: an update exports, and a
	// departure, a death or a move withdraws, under mu.
	//lint:lockorder grm.GRM.mu<election.Node.mu
	//lint:lockorder grm.GRM.mu<trading.Service.mu
	mu      sync.Mutex
	apps    map[string]*appInfo
	nodes   map[string]*nodeLiveness
	seq     int
	stats   Stats
	stopped bool
	started bool
	// The armed timers of the scheduler and of a new leader's Adopt calls.
	sched, adopt sim.TimerSlot

	// Failover state: the role this GRM plays, the outbound replication
	// stream (a replica-set leader's) and the changes it is yet to commit,
	// the fencing epoch stamped on outbound writes — the election term, never
	// below 1 — and the consensus node driving role transitions.
	role    Role
	repl    *replicator
	pending map[entity]struct{}
	epoch   int
	elect   *election.Node
	self    orb.ObjectRef // this GRM's reference, under an election

	// Admission pipeline: Submit enqueues into the bounded admitQ and the
	// queue is drained in batches by matchBatch — synchronously from Submit
	// by default, or by the kickDrain goroutine under WithAsyncAdmission.
	// draining is the single-drainer latch. drainDone is nil unless a
	// synchronous caller waits for the latch: the first such waiter makes it,
	// and the drainer closes it and sets it nil when it releases the latch, so
	// the waiters re-check the queue without holding mu across a batch.
	admitLimit     int
	admitBatch     int
	asyncAdmit     bool
	admitQ         []*appInfo
	draining       bool
	drainDone      chan struct{}
	drainerRunning bool
	drainWG        sync.WaitGroup

	// matchScratch is where a matchCtx keeps its entries and collects and
	// ranks its candidates' keys. A context takes it at its first fill,
	// leaving it empty for a concurrent one, holds it for its batch and gives
	// it back cleared; a sync.Pool would not do, the collector empties it
	// between misses.
	matchScratch matchScratch
}

// Option configures a GRM.
type Option func(*GRM)

// WithPolicy sets the scheduling policy (default UsageAware).
func WithPolicy(p Policy) Option {
	return func(g *GRM) { g.policy = p }
}

// WithSchedulePeriod sets the pending-task scheduling cadence.
func WithSchedulePeriod(d time.Duration) Option {
	return func(g *GRM) { g.schedPeriod = d }
}

// WithMaxAttempts bounds negotiation rounds per task of a placement; a
// placement tries at least one candidate.
func WithMaxAttempts(n int) Option {
	return func(g *GRM) { g.maxAttempts = n }
}

// WithBackbone sets the inter-LAN backbone bandwidth used to judge
// virtual-topology requests (default 10 Mbps).
func WithBackbone(mbps float64) Option {
	return func(g *GRM) { g.backboneMbps = mbps }
}

// WithRNG seeds the policy randomness.
func WithRNG(rng *sim.RNG) Option {
	return func(g *GRM) { g.rng = rng }
}

// WithLogger sets the logger.
func WithLogger(log *slog.Logger) Option {
	return func(g *GRM) { g.log = log }
}

// WithSuspectAfter fixes the failure detector's heartbeat-miss threshold: a
// node silent for longer than d is declared dead, whatever its cadence. The
// default (zero) is adaptive — three times the node's observed update
// interval, floored at suspectFloor — which tolerates slow cadences.
func WithSuspectAfter(d time.Duration) Option {
	return func(g *GRM) { g.suspectAfter = d }
}

// WithWindowAware makes placement honour the availability windows LRMs
// forecast: an offer whose current window ends before a task's estimated
// runtime would complete (at confidence of at least
// DefaultMinWindowConfidence) is skipped, so work lands on nodes predicted
// to stay idle long enough to finish it. Dedicated nodes and nodes without
// a forecast always pass. Off by default: a window-blind GRM behaves
// exactly as before.
func WithWindowAware() Option {
	return func(g *GRM) { g.windowAware = true }
}

// WithEvictionObserver registers fn, called outside GRM locks with the app
// ID whenever the failure detector rolls an application's tasks back. The
// grid uses it to abort in-process BSP runtimes so they restart from their
// last checkpoint.
func WithEvictionObserver(fn func(appID string)) Option {
	return func(g *GRM) { g.onEviction = fn }
}

// New returns a GRM for the named cluster. The GRM hosts the cluster's
// trader internally, mirroring the paper's GRM+Trader cluster-manager node.
// It starts as the sole primary of term 1: its fencing epoch is 1 until an
// election (UseElection) hands it a term of its own.
func New(clusterID string, clock sim.Clock, inv orb.Invoker, opts ...Option) *GRM {
	g := &GRM{
		clusterID:    clusterID,
		clock:        clock,
		inv:          inv,
		policy:       UsageAware{},
		rng:          sim.NewRNG(1),
		log:          slog.New(slog.DiscardHandler),
		schedPeriod:  DefaultSchedulePeriod,
		maxAttempts:  DefaultMaxAttempts,
		backboneMbps: 10,
		epoch:        1,
		apps:         make(map[string]*appInfo),
		nodes:        make(map[string]*nodeLiveness),
		pending:      make(map[entity]struct{}),
		admitLimit:   DefaultAdmissionLimit,
		admitBatch:   DefaultAdmissionBatch,
	}
	g.trader = trading.NewService(clock.Now)
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// ClusterID returns the cluster identifier.
func (g *GRM) ClusterID() string { return g.clusterID }

// Trader exposes the cluster trader (observability, tests).
func (g *GRM) Trader() *trading.Service { return g.trader }

// PolicyName returns the active scheduling policy's name.
func (g *GRM) PolicyName() string { return g.policy.Name() }

// Stats returns a snapshot of the counters.
func (g *GRM) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.Members = len(g.nodes)
	return s
}

// Start arms the periodic pending-task scheduler.
func (g *GRM) Start() {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return
	}
	g.started = true
	g.stopped = false
	g.mu.Unlock()

	var arm func()
	arm = func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.stopped {
			return
		}
		g.sched.Set(g.clock.AfterFunc(g.schedPeriod, func() {
			g.SchedulePending()
			arm()
		}))
	}
	arm()
}

// Stop cancels the scheduler, a leader's Adopt calls and the replication pump.
func (g *GRM) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.started = false
	g.sched.Stop()
	g.adopt.Stop()
	if g.repl != nil {
		g.repl.stopLocked()
		g.repl = nil
	}
	g.mu.Unlock()
	// The async drainer observes stopped at its next loop iteration; wait
	// for it so Stop leaves no scheduling goroutine behind.
	g.drainWG.Wait()
}

// handleUpdate applies one Information Update Protocol message, the body d
// holds, and returns the manager's fencing epoch for the reply. A replica
// that may not accept writes refuses it (refusalLocked): a partitioned
// leader that kept answering updates would keep its LRMs' fences pinned to
// its epoch, leaving them obedient to a deposed manager.
//
// The update is decoded, recorded and exported in one g.mu section. It looks
// the node's record up by the ID the body starts with and decodes the update
// against it, so that the status reuses the identity strings the node reports
// on every update; a body that does not decode is reported before any
// refusal. Then it records liveness, counters and the replication stream's
// copy, and upserts the node's offer from the record. The failure sweep takes
// a node's place, and withdraws its offer, in a section of its own, and a
// departure the status announces or a move to a new reference in this one, so
// none of them falls between the record and its export. Only an accepted update delivers its
// events, after the section: a refused one is answered with an error and the
// LRM sends them again, to whoever it reports to next.
func (g *GRM) handleUpdate(d *orb.Decoder) (int, error) {
	now := g.clock.Now()
	// The windows stay on this stack: the export reads them, and the record
	// keeps none.
	var buf [protocol.MaxWindows]protocol.AvailWindow
	peek := *d
	id := peek.RawString()
	g.mu.Lock()
	lv := g.nodes[string(id)]
	var like *protocol.NodeStatus
	if lv != nil {
		like = &lv.status
	}
	s, windows, events, err := protocol.DecodeUpdate(d, like, &buf)
	if err != nil {
		g.mu.Unlock()
		return 0, orb.Errorf(orb.CodeMarshal, "update: %v", err)
	}
	if err := g.refusalLocked(); err != nil {
		g.stats.UpdatesRefused++
		g.mu.Unlock()
		return 0, err
	}
	g.stats.UpdatesReceived++
	epoch := g.epoch
	// A departing node exports nothing: an offer would hand it fresh work
	// right before the predicted owner arrival.
	if lv = g.recordStatusLocked(lv, &s, now); lv.departUntil.IsZero() {
		g.exportStatusOffer(lv, windows, now)
	}
	g.mu.Unlock()
	for events.Len() > 0 {
		g.handleEvent(events.Next())
	}
	return epoch, nil
}

// Epoch returns the fencing epoch stamped on this manager's outbound writes:
// 1 from New, the election term under UseElection.
func (g *GRM) Epoch() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// offerWindow is what a status offer advertises of the node's forecast: the
// end and confidence of the window covering the export's instant. Zero means
// "no forecast" — the window filter lets those offers pass rather than
// starving a fleet that never trained an analyzer.
type offerWindow struct{ end, conf float64 }

// coveringWindow is the offer window of the first of windows covering now.
func coveringWindow(windows []protocol.AvailWindow, now time.Time) offerWindow {
	for _, w := range windows {
		if !now.Before(w.Start) && now.Before(w.End) {
			return offerWindow{float64(w.End.Unix()), w.Confidence}
		}
	}
	return offerWindow{}
}

// exportStatusOffer upserts the trader offer of the node whose record lv is,
// from its status and the one of the update's windows covering now, stamped
// with the manager's fencing epoch, through the record's place. When the
// record holds none — the node's first export, or its first since its place
// was taken — it exports by reference and stores the new place in the record.
// Caller holds g.mu.
func (g *GRM) exportStatusOffer(lv *nodeLiveness, windows []protocol.AvailWindow, now time.Time) {
	s := &lv.status
	win := coveringWindow(windows, now)
	// One value per name of statusSchema, in its order, on the stack: Upsert
	// and Export copy them into the offer they store.
	values := [...]constraint.Value{
		constraint.Number(s.GridFree.MIPS),
		constraint.Number(s.GridFree.RAMMB),
		constraint.String(s.Platform.OS),
		constraint.String(s.Platform.Arch),
		constraint.Bool(s.OwnerBusy),
		constraint.Bool(s.Dedicated),
		constraint.Number(s.PredictedIdle.Seconds()),
		constraint.Number(s.GridFree.DiskMB),
		constraint.Number(s.GridFree.NetMbps),
		constraint.Number(s.Capacity.MIPS),
		constraint.Number(s.Capacity.RAMMB),
		constraint.Number(win.end),
		constraint.Number(win.conf),
		constraint.String(s.NodeID),
		constraint.String(s.LANID),
		constraint.Number(s.Capacity.DiskMB),
		constraint.Number(s.Capacity.NetMbps),
		constraint.Number(float64(s.Timestamp.Unix())),
		// The exporting manager's fencing epoch: consumers comparing
		// offers across a failover can spot exports from a deposed
		// primary.
		constraint.Number(float64(g.epoch)),
	}
	if !g.trader.Upsert(lv.place, statusSchema, values[:]) {
		lv.place = g.trader.Export(s.LRMRef, statusSchema, values[:])
	}
}

// KnownNodes returns the number of live node offers.
func (g *GRM) KnownNodes() int { return g.trader.Count() }

// Submit registers an application and enqueues it into the bounded
// admission queue. In the default synchronous mode the queue is drained
// before Submit returns — an immediate placement attempt, exactly the
// seed's submit-then-place semantics. Under WithAsyncAdmission Submit
// returns as soon as the app is queued and a background drainer batches
// placements. A full queue rejects with ErrAdmissionFull, and a replica that
// may not accept writes refuses (refusalLocked). A replica-set leader replies
// once the app is committed, or settles one that was not (uncommitted). The
// ID identifies the app in AppStatus.
func (g *GRM) Submit(spec protocol.ApplicationSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	g.mu.Lock()
	if err := g.refusalLocked(); err != nil {
		g.mu.Unlock()
		return "", err
	}
	if len(g.admitQ) >= g.admitLimit {
		g.refuseLocked()
		g.mu.Unlock()
		return "", ErrAdmissionFull
	}
	g.seq++
	// The application is "<cluster>-app-<seq>" and its tasks "<app>/t<i>",
	// one record each in one array.
	var buf [64]byte
	name := strconv.AppendInt(append(append(buf[:0], g.clusterID...), "-app-"...), int64(g.seq), 10)
	id := string(name)
	app := &appInfo{
		id:         id,
		seq:        g.seq,
		spec:       spec,
		constraint: buildConstraint(spec),
		submitted:  g.clock.Now(),
		tasks:      make([]*taskInfo, spec.NumTasks),
	}
	tasks := make([]taskInfo, spec.NumTasks)
	for i := range tasks {
		tasks[i] = taskInfo{
			id:    string(strconv.AppendInt(append(name, "/t"...), int64(i), 10)),
			state: protocol.TaskPending,
			work:  spec.WorkPerTask,
		}
		app.tasks[i] = &tasks[i]
	}
	g.stats.Submissions++
	g.putAppLocked(app)
	g.queueLocked(app)
	async, repl := g.asyncAdmit, g.repl
	g.mu.Unlock()

	if async {
		g.kickDrain()
	} else {
		g.drainAdmission(false)
	}
	if repl != nil {
		if err := repl.flush(); err != nil {
			return "", g.uncommitted(app, repl, err)
		}
	}
	return id, nil
}

// uncommitted settles a Submit whose application the replica set did not
// commit: the flush failed with err. A leader that still leads cancels the
// application, so that neither a later flush nor the entry that timed out
// runs one its client was told failed; the cancellation is its latest record,
// which the next flush commits. A deposed leader cannot cancel, and an earlier
// flush may have committed the application: its answer is a CodeTimeout,
// outcome unknown, on which the hierarchy tries no other cluster.
func (g *GRM) uncommitted(app *appInfo, repl *replicator, err error) error {
	g.mu.Lock()
	if g.repl != repl {
		g.mu.Unlock()
		return orb.Errorf(orb.CodeTimeout, "grm: %s may be committed; leadership was lost: %v", app.id, err)
	}
	running := g.cancelLocked(app)
	g.mu.Unlock()
	g.cancelTasks(running, "cancel of an uncommitted application failed")
	return orb.Errorf(orb.CodeApplication, "grm: %s not committed, cancelled: %v", app.id, err)
}

// SchedulePending runs one scheduling pass over every app with pending
// tasks, in submission order. Each pass first runs the failure detector, so
// tasks orphaned by a dead node re-enter the pending set and are replaced
// in the same pass. A follower never schedules: a deposed leader with a stale
// timer must not race the real one.
func (g *GRM) SchedulePending() {
	g.mu.Lock()
	follower := g.role != RolePrimary
	g.mu.Unlock()
	if follower {
		return
	}
	g.drainAdmission(false)
	g.detectFailures()
	g.mu.Lock()
	var apps []*appInfo
	for _, a := range g.apps {
		if slices.ContainsFunc(a.tasks, isPending) {
			apps = append(apps, a)
		}
	}
	g.mu.Unlock()
	slices.SortFunc(apps, func(a, b *appInfo) int { return cmp.Compare(a.seq, b.seq) })
	g.matchBatch(apps)
}

// scheduleApp places an app's pending tasks according to its kind; mc shares
// trader snapshots across the calls of one batch.
func (g *GRM) scheduleApp(app *appInfo, mc *matchCtx) {
	g.mu.Lock()
	pending := app.pendingTasks()
	g.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	if app.spec.Topology != nil {
		g.scheduleTopology(app, pending, mc)
		return
	}
	// A BSP app is a gang: every member needs a window covering the same
	// execution interval [now, now+runtime], so the one filter pass with the
	// shared deadline removes exactly the nodes whose windows do not overlap
	// the gang's run.
	g.place(app, pending, mc, app.spec.Kind == protocol.AppBSP, "")
}

// place negotiates tasks of app over its candidates from the trader hint, in
// policy order and minus those the availability windows rule out; see
// negotiate. It reports how many of the tasks now run.
func (g *GRM) place(app *appInfo, tasks []*taskInfo, mc *matchCtx, gang bool, avoid string) int {
	ranked, err := mc.candidates(app)
	if err != nil {
		g.log.Warn("candidate query failed", "app", app.id, "err", err)
		g.mu.Lock()
		g.stats.PlacementFailures += len(tasks)
		g.mu.Unlock()
		return 0
	}
	c := g.windowFilter(ranked, app.spec)
	return g.negotiate(app, tasks, c.next, gang, avoid)
}

// nodeGrant is what one Reserve obtained on one node: holds, each paired with
// the task that is to consume it.
type nodeGrant struct {
	nodeID string
	ref    orb.ObjectRef
	holds  []string
	tasks  []*taskInfo
}

// negotiate runs the Resource Reservation and Execution Protocol for tasks of
// app, all of them pending: direct negotiation with the candidates' LRMs, best
// first as next returns them (nil after the last), retrying on refusal. The
// unit is the node, not the task: a node (never the one named avoid) is asked
// once, for a hold per task still missing, and granting fewer means it is
// full, so the next one is asked for the remainder — until nothing is missing
// or maxAttempts Reserves per task are spent. Independent tasks start node by node, one Execute for all that a
// node granted; a gang starts after its last grant, or not at all. A hold that
// does not end as a running task — its Execute failed, the gang was abandoned
// — is released. It reports how many of the tasks now run.
func (g *GRM) negotiate(app *appInfo, tasks []*taskInfo, next func() *trading.Offer, gang bool, avoid string) int {
	alloc := app.spec.EffectiveAlloc()
	budget := g.maxAttempts * len(tasks)
	missing := tasks
	placed, attempts := 0, 0
	// A gang's grants wait for its last, on the stack unless it spans more
	// than four nodes.
	var gangBuf [4]nodeGrant
	held := gangBuf[:0]
	for offer := next(); offer != nil; offer = next() {
		gr := nodeGrant{nodeID: strProp(offer, fieldNode), ref: offer.Ref}
		if gr.nodeID == avoid {
			continue
		}
		attempts++
		gr.holds = g.reserve(app, gr.ref, alloc, min(len(missing), protocol.MaxHolds))
		gr.tasks = missing[:len(gr.holds)]
		switch {
		case len(gr.holds) == 0:
		case gang:
			held = append(held, gr)
			missing = missing[len(gr.holds):]
		case g.execute(app, alloc, gr):
			placed += len(gr.holds)
			missing = missing[len(gr.holds):]
		}
		// Tested here, not at the top of the loop: next pulls — pops off the
		// ranking — a candidate nobody would try.
		if len(missing) == 0 || attempts >= budget {
			break
		}
	}
	for _, gr := range held {
		if len(missing) > 0 {
			// Not enough nodes for the whole gang: its partial grants must not
			// block other placements until their TTL expires.
			g.release(gr.ref, gr.holds)
		} else if g.execute(app, alloc, gr) {
			placed += len(gr.holds)
		}
	}
	if placed < len(tasks) {
		g.mu.Lock()
		g.stats.PlacementFailures += len(tasks) - placed
		g.mu.Unlock()
	}
	return placed
}

// reserve asks the LRM at ref for want holds of alloc and returns the ones
// granted, at most want and each ID once. Every Reserve the GRM issues is
// issued here. What a reply names beyond that — a surplus, or holds attached
// to a refusal — is released at once.
func (g *GRM) reserve(app *appInfo, ref orb.ObjectRef, alloc resource.Vector, want int) []string {
	g.mu.Lock()
	g.stats.NegotiationRounds++
	g.negotiatedLocked(app)
	epoch := g.epoch
	g.mu.Unlock()
	reply, err := protocol.Reserve.Invoke(g.inv, ref, protocol.ReserveRequest{
		Holder: app.id,
		Amount: alloc,
		TTL:    time.Minute,
		Epoch:  epoch,
		Count:  want,
	})
	var ids []string
	if err == nil {
		n := 0
		ids = reply.IDs()
		for _, id := range ids {
			if !slices.Contains(ids[:n], id) {
				ids[n] = id
				n++
			}
		}
		keep := 0
		if reply.Granted {
			keep = min(n, want)
		}
		g.release(ref, ids[keep:n])
		ids = ids[:keep]
	}
	if len(ids) == 0 {
		g.mu.Lock()
		g.stats.Refusals++
		g.mu.Unlock()
	}
	return ids
}

// execute starts the tasks of gr on its node with one Execute, which the LRM
// honours for all of them or for none, and records them as running. On an
// error it gives the holds back and reports false: the tasks stay pending.
func (g *GRM) execute(app *appInfo, alloc resource.Vector, gr nodeGrant) bool {
	req := protocol.ExecuteRequest{AppID: app.id, Alloc: alloc, Tasks: make([]protocol.TaskStart, len(gr.tasks))}
	g.mu.Lock()
	req.Epoch = g.epoch
	for i, t := range gr.tasks {
		req.Tasks[i] = protocol.TaskStart{
			ReservationID:   gr.holds[i],
			TaskID:          t.id,
			Work:            t.work,
			InitialProgress: t.initialProgress,
		}
	}
	g.mu.Unlock()
	if _, err := protocol.Execute.Invoke(g.inv, gr.ref, req); err != nil {
		g.log.Debug("execute failed after grant", "app", app.id, "node", gr.nodeID, "err", err)
		g.release(gr.ref, gr.holds)
		return false
	}
	g.mu.Lock()
	g.placeLocked(app, gr)
	g.mu.Unlock()
	return true
}

// release gives back, best effort, holds that will not be used, so they do
// not stand against the node's capacity until their TTL expires.
func (g *GRM) release(ref orb.ObjectRef, holds []string) {
	for _, id := range holds {
		if _, err := protocol.Release.Invoke(g.inv, ref, id); err != nil {
			g.log.Debug("release failed", "lrm", ref.Endpoint.Addr, "hold", id, "err", err)
		}
	}
}

// detectFailures declares dead every node whose heartbeats have stopped for
// longer than its suspect threshold, withdrawing their trader offers in the
// same g.mu section, and then rolls back their in-flight tasks.
func (g *GRM) detectFailures() {
	now := g.clock.Now()
	g.mu.Lock()
	dead := g.declareDeadLocked(now)
	g.mu.Unlock()
	for _, id := range dead {
		g.evictNodeTasks(id)
	}
}

// suspectFloor floors the adaptive threshold. A member a new leader knows only
// from the log has no interval, and would otherwise be buried at the leader's
// first sweep, before it could report; and LRMs that lost their manager reach
// its successor tens of seconds after it takes office (35 s in E13, on a 15-s
// cadence).
const suspectFloor = 90 * time.Second

// declareDeadLocked is the failure detector's verdict, the one rule that takes
// a silent node's offer: it forgets every node silent past its threshold, in
// node order, withdraws their offers in one trader write and returns them. A
// node with no cadence of its own is judged at the longest measured of any
// node; one heard from once is left alone while there is none. Caller holds
// g.mu.
func (g *GRM) declareDeadLocked(now time.Time) []string {
	var longest time.Duration
	for _, lv := range g.nodes {
		longest = max(longest, lv.interval)
	}
	var dead []string
	var records []*nodeLiveness
	for _, id := range slices.Sorted(maps.Keys(g.nodes)) {
		lv := g.nodes[id]
		if now.Before(lv.departUntil) {
			// Departing is not Suspect: the node said goodbye, its offer is
			// withdrawn and its tasks drained, so silence until the announced
			// deadline is expected, not a failure.
			continue
		}
		threshold := g.suspectAfter
		if threshold <= 0 {
			// Adaptive: three missed heartbeats at the node's own cadence.
			if lv.updates == 1 && lv.interval == 0 && longest == 0 {
				continue
			}
			threshold = max(3*cmp.Or(lv.interval, longest), suspectFloor)
		}
		if now.Sub(lv.lastSeen) > threshold {
			dead = append(dead, id)
			records = append(records, g.dropNodeLocked(id))
		}
	}
	g.takePlacesLocked(records...)
	g.stats.NodesDeclaredDead += len(dead)
	return dead
}

// evictNodeTasks rolls back every application with running tasks on a node
// just declared dead. Bag-of-tasks apps lose only the dead node's tasks;
// BSP gangs roll back together — surviving members are cancelled on their
// LRMs and the whole gang re-enters pending at the lowest member checkpoint,
// since processes blocked at a barrier can make no progress without the
// lost peer. With RestartEvicted unset the affected tasks are abandoned.
func (g *GRM) evictNodeTasks(nodeID string) {
	var cancels []remote
	var affected []string

	g.mu.Lock()
	for _, appID := range slices.Sorted(maps.Keys(g.apps)) {
		app := g.apps[appID]
		if !slices.ContainsFunc(app.tasks, func(t *taskInfo) bool { return t.runsOn(nodeID) }) {
			continue
		}
		gang := app.spec.Kind == protocol.AppBSP
		gangCkpt := gangCheckpoint(app)
		for _, t := range app.tasks {
			lost := t.runsOn(nodeID)
			survivor := gang && !lost && t.state == protocol.TaskRunning
			if !lost && !survivor {
				continue
			}
			if survivor {
				cancels = append(cancels, remote{id: t.id, ref: t.lrm})
			}
			if lost {
				g.stats.TasksEvicted++
				g.stats.TasksPresumedLost++
			}
			switch {
			case !app.spec.RestartEvicted:
				g.abandonLocked(app, t)
			case gang:
				g.rollBackLocked(app, t, gangCkpt)
			default:
				g.rollBackLocked(app, t, checkpointBoundary(app.spec, t.progress))
			}
		}
		affected = append(affected, appID)
	}
	observer := g.onEviction
	g.mu.Unlock()

	g.cancelTasks(cancels, "gang cancel RPC failed")
	if observer != nil {
		for _, appID := range affected {
			observer(appID)
		}
	}
}

// cancelTasks cancels tasks on their LRMs, best effort: an LRM that cannot be
// reached reaps the task as an orphan when it reconciles.
func (g *GRM) cancelTasks(tasks []remote, msg string) {
	for _, t := range tasks {
		if _, err := protocol.Cancel.Invoke(g.inv, t.ref, protocol.CancelRequest{TaskID: t.id, Epoch: g.Epoch()}); err != nil {
			g.log.Debug(msg, "task", t.id, "err", err)
		}
	}
}

// handleEvent processes ev for the task that appID and taskID name; ev's own
// AppID and TaskID are not read. An update's events name theirs by the
// frame's bytes (protocol.UpdateEvents.Next), which the lookups here read
// without copying.
func (g *GRM) handleEvent(ev protocol.TaskEvent, appID, taskID []byte) {
	g.mu.Lock()
	app, ok := g.apps[string(appID)]
	if !ok {
		g.mu.Unlock()
		return
	}
	task := app.task(taskID)
	// An eviction, drain or progress report speaks for one run of the task: a
	// retried delivery, or one from a node the task has since left, is stale.
	if task == nil || ev.Kind != protocol.TaskEventDone && !task.runsOn(ev.NodeID) {
		g.mu.Unlock()
		return
	}
	var requeue bool
	var abortApp string
	switch ev.Kind {
	case protocol.TaskEventDone:
		if !g.finishLocked(app, task, ev.At) {
			g.mu.Unlock()
			return
		}
	case protocol.TaskEventEvicted:
		g.stats.TasksEvicted++
		g.progressLocked(task, ev.Progress)
		if app.spec.RestartEvicted {
			// Roll back to the last checkpoint and requeue for placement.
			g.rollBackLocked(app, task, checkpointBoundary(app.spec, ev.Progress))
			requeue = true
		} else {
			g.abandonLocked(app, task)
		}
	case protocol.TaskEventDrained:
		// A graceful drain: the node checkpointed and handed the task back
		// before a predicted owner arrival. Unlike an eviction the progress
		// report is exact, so a migratable task resumes from it instead of
		// rolling back to a checkpoint boundary.
		g.stats.TasksDrained++
		g.progressLocked(task, ev.Progress)
		ckpt := checkpointBoundary(app.spec, ev.Progress)
		switch {
		case !app.spec.RestartEvicted:
			g.abandonLocked(app, task)
		case app.spec.Kind == protocol.AppBSP:
			// BSP processes resume only from superstep checkpoint
			// boundaries; a drain is still a rollback for them. The
			// eviction observer fires so an attached runtime unwinds at
			// its next barrier and restarts from the checkpoint.
			g.rollBackLocked(app, task, ckpt)
			requeue = true
			abortApp = app.id
		default:
			// Exact-progress migration: everything past the last checkpoint
			// boundary that an eviction would have lost is preserved.
			g.stats.DrainWorkSavedMI += ev.Progress - ckpt
			g.requeueLocked(app, task, ev.Progress)
			requeue = true
		}
	case protocol.TaskEventProgress:
		g.progressLocked(task, ev.Progress)
	}
	observer := g.onEviction
	g.mu.Unlock()

	if abortApp != "" && observer != nil {
		observer(abortApp)
	}
	if requeue {
		// Try immediate re-placement, avoiding the node that evicted us. The
		// one-query context's hit/miss tally is not a batch's and is dropped.
		mc := g.newMatchCtx()
		g.place(app, []*taskInfo{task}, mc, false, ev.NodeID)
		mc.close()
	}
}

// CancelApp aborts an application: running tasks are cancelled on their
// LRMs, pending tasks are dropped. Completed tasks keep their state.
func (g *GRM) CancelApp(appID string) error {
	g.mu.Lock()
	app, ok := g.apps[appID]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("grm: unknown application %q", appID)
	}
	running := g.cancelLocked(app)
	g.mu.Unlock()
	g.cancelTasks(running, "cancel RPC failed")
	return nil
}

// Reconcile answers an LRM's post-registration task report: any claimed task
// this GRM does not know as running on that node is an orphan the LRM must
// cancel. After a replica-set failover the replicated state covers every
// claim; after a cold rebuild the dead manager's placements are reaped here,
// freeing their node capacity for fresh placements.
func (g *GRM) Reconcile(req protocol.ReconcileRequest) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var orphans []string
	for _, claim := range req.Claims {
		var t *taskInfo
		if app, ok := g.apps[claim.AppID]; ok {
			t = app.task([]byte(claim.TaskID))
		}
		if t == nil || !t.runsOn(req.NodeID) {
			orphans = append(orphans, claim.TaskID)
			g.stats.TasksReconciled++
		}
	}
	return orphans
}

// AppStatus returns the status of an application.
func (g *GRM) AppStatus(appID string) (protocol.AppStatus, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	app, ok := g.apps[appID]
	if !ok {
		return protocol.AppStatus{}, fmt.Errorf("grm: unknown application %q", appID)
	}
	st := app.status()
	st.Tasks = make([]protocol.TaskStatus, len(app.tasks))
	for i, t := range app.tasks {
		st.Tasks[i] = t.status()
	}
	return st, nil
}

// encodeAppStatus writes into e the AppStatus reply for the application whose
// ID the request d holds: the encoding of what AppStatus returns, written from
// the records without building the status.
func (g *GRM) encodeAppStatus(d *orb.Decoder, e *orb.Encoder) error {
	appID := d.RawString()
	if err := d.Err(); err != nil {
		return orb.Errorf(orb.CodeMarshal, "%s: %v", protocol.OpAppStatus, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	app, ok := g.apps[string(appID)]
	if !ok {
		return fmt.Errorf("grm: unknown application %q", appID)
	}
	st := app.status()
	st.EncodeTasks(e, len(app.tasks), func(i int) protocol.TaskStatus { return app.tasks[i].status() })
	return nil
}

// status is the application's AppStatus without its tasks. Caller holds g.mu.
func (a *appInfo) status() protocol.AppStatus {
	return protocol.AppStatus{
		AppID:        a.id,
		Name:         a.spec.Name,
		Kind:         a.spec.Kind,
		Submitted:    a.submitted,
		Finished:     a.finished,
		Negotiations: a.negotiations,
	}
}

// status is the task's TaskStatus. Caller holds g.mu.
func (t *taskInfo) status() protocol.TaskStatus {
	return protocol.TaskStatus{
		TaskID:   t.id,
		NodeID:   t.nodeID,
		State:    t.state,
		Progress: t.progress,
		Work:     t.work,
		Restarts: t.restarts,
	}
}

// AppIDs returns all known application IDs, sorted.
func (g *GRM) AppIDs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Sorted(maps.Keys(g.apps))
}

// buildConstraint translates an application spec into a trader constraint:
// its clauses ANDed, each number as %g formats it. The text is built in one
// buffer, on the stack unless the spec's own constraint is long: the compile
// cache and the experiments' output key on it, so it must not change.
func buildConstraint(spec protocol.ApplicationSpec) string {
	alloc := spec.EffectiveAlloc()
	var buf [256]byte
	b := appendAtLeast(buf[:0], PropMIPSFree, alloc.MIPS)
	b = appendAtLeast(b, PropRAMFree, alloc.RAMMB)
	if alloc.DiskMB > 0 {
		b = appendAtLeast(b, PropDiskFree, alloc.DiskMB)
	}
	if alloc.NetMbps > 0 {
		b = appendAtLeast(b, PropNetFree, alloc.NetMbps)
	}
	min := spec.Requirements.Min
	if min.MIPS > 0 {
		b = appendAtLeast(b, PropMIPSTotal, min.MIPS)
	}
	if min.RAMMB > 0 {
		b = appendAtLeast(b, "ram_total", min.RAMMB)
	}
	if min.DiskMB > 0 {
		b = appendAtLeast(b, "disk_total", min.DiskMB)
	}
	if min.NetMbps > 0 {
		b = appendAtLeast(b, "net_total", min.NetMbps)
	}
	if p := spec.Requirements.Platform; p != nil {
		b = appendEquals(b, PropOS, p.OS)
		b = appendEquals(b, PropArch, p.Arch)
	}
	if spec.Constraint != "" {
		b = append(append(append(appendAnd(b), '('), spec.Constraint...), ')')
	}
	return string(b)
}

// appendAtLeast appends the clause "prop >= v" to the ones b holds.
func appendAtLeast(b []byte, prop string, v float64) []byte {
	b = append(appendAnd(b), prop...)
	return strconv.AppendFloat(append(b, " >= "...), v, 'g', -1, 64)
}

// appendEquals appends the clause "prop == 'v'" to the ones b holds.
func appendEquals(b []byte, prop, v string) []byte {
	b = append(appendAnd(b), prop...)
	return append(append(append(b, " == '"...), v...), '\'')
}

// appendAnd appends the conjunction that precedes a clause after the first.
func appendAnd(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return append(b, " and "...)
}

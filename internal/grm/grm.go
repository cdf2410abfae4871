package grm

import (
	"cmp"
	"fmt"
	"iter"
	"log/slog"
	"maps"
	"slices"
	"strings"
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
	// DefaultOfferTTL ages LRM offers out of the trader when updates stop
	// (crashed or partitioned nodes).
	DefaultOfferTTL = 90 * time.Second
	// DefaultSchedulePeriod is the pending-task scheduling cadence.
	DefaultSchedulePeriod = 30 * time.Second
	// DefaultMaxAttempts bounds negotiation rounds per task of a placement.
	DefaultMaxAttempts = 8
	// NodeStatusType is the trader service type for LRM offers.
	NodeStatusType = "NodeStatus"
)

// Stats are cumulative GRM counters for experiments.
type Stats struct {
	UpdatesReceived   int
	StalenessSum      time.Duration // sum of (receive time - send time)
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
	LastBatchSize       int // size of the most recent batch (gauge)
	MaxBatchSize        int // largest batch drained so far
	SnapshotHits        int // candidate queries served from a batch snapshot
	SnapshotMisses      int // candidate queries that hit the trader
	// Availability-window / graceful-departure counters.
	GracefulDepartures int     // departure notices processed (fast-path withdrawals)
	TasksDrained       int     // tasks handed back by a draining node before it left
	DrainWorkSavedMI   float64 // progress past the last checkpoint preserved by drains
	WindowRejected     int     // candidate offers skipped: window too short for the task
}

// nodeLiveness is the failure detector's record of one node's heartbeats.
type nodeLiveness struct {
	lastSeen time.Time
	interval time.Duration // most recently observed update gap
	updates  int
	// status is the node's latest full NodeStatus: with departUntil, the
	// record the replication stream carries.
	status protocol.NodeStatus
	// place is where the node's offer sits in the trader, for its updates to
	// upsert through; zero until the offer is exported by reference, and again
	// once a departure, a death or a move to a new reference takes it.
	place trading.Place
	// departUntil, when set, marks a node that announced a graceful
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
func (a *appInfo) task(id string) *taskInfo {
	for _, t := range a.tasks {
		if t.id == id {
			return t
		}
	}
	return nil
}

func (a *appInfo) pendingTasks() []*taskInfo {
	var out []*taskInfo
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

	offerTTL     time.Duration
	schedPeriod  time.Duration
	maxAttempts  int
	backboneMbps float64
	suspectAfter time.Duration // fixed detector threshold; 0 = adaptive
	windowAware  bool          // filter candidates by availability windows
	onEviction   func(appID string)

	// mu guards apps, nodes, seq, stats, stopped, started, timers, role,
	// repl, epoch, elect, the admission-queue fields (admitQ, draining,
	// drainDone, drainerRunning) and rankScratch; apps, nodes
	// and admitQ are written only by the transitions in state.go. It must be
	// released before any protocol RPC (Reserve/Execute/...): negotiation
	// blocks on remote LRMs and may itself re-enter the GRM. The replication
	// stream obeys the same rule: marks under mu are lock-only (g.mu →
	// repl.mu), and the pump proposes to the log with no GRM lock held.
	//lint:lockorder grm.GRM.mu<grm.replicator.mu
	mu      sync.Mutex
	apps    map[string]*appInfo
	nodes   map[string]*nodeLiveness
	seq     int
	stats   Stats
	stopped bool
	started bool
	timers  []sim.Timer

	// Failover state: the role this GRM plays, the outbound replication
	// stream (a replica-set leader's), the fencing epoch stamped on outbound
	// writes — the election term, never below 1 — and the consensus node
	// driving role transitions when UseElection was called.
	role  Role
	repl  *replicator
	epoch int
	elect *election.Node

	// Admission pipeline: Submit enqueues into the bounded admitQ and the
	// queue is drained in batches by matchBatch — synchronously from Submit
	// by default, or by the kickDrain goroutine under WithAsyncAdmission.
	// draining is the single-drainer latch; drainDone is closed when the
	// current drainer releases it so waiting submitters can re-check the
	// queue without holding mu across a batch.
	admitLimit     int
	admitBatch     int
	asyncAdmit     bool
	admitQ         []*appInfo
	draining       bool
	drainDone      chan struct{}
	drainerRunning bool
	drainWG        sync.WaitGroup

	// rankScratch is where a matchCtx collects and ranks its candidates' keys.
	// A context takes it at its first fill, leaving nil for a concurrent one,
	// holds it for its batch and gives it back cleared; a sync.Pool would not
	// do, the collector empties it between misses.
	rankScratch []rankKey
}

// Option configures a GRM.
type Option func(*GRM)

// WithPolicy sets the scheduling policy (default UsageAware).
func WithPolicy(p Policy) Option {
	return func(g *GRM) { g.policy = p }
}

// WithOfferTTL sets the trader offer expiry.
func WithOfferTTL(d time.Duration) Option {
	return func(g *GRM) { g.offerTTL = d }
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
// node silent for longer than d is declared dead. The default (zero) is
// adaptive — three times the node's observed update interval, floored at
// the offer TTL — which tolerates slow update cadences without tuning.
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
		offerTTL:     DefaultOfferTTL,
		schedPeriod:  DefaultSchedulePeriod,
		maxAttempts:  DefaultMaxAttempts,
		backboneMbps: 10,
		epoch:        1,
		apps:         make(map[string]*appInfo),
		nodes:        make(map[string]*nodeLiveness),
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
	return g.stats
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
		t := g.clock.AfterFunc(g.schedPeriod, func() {
			g.SchedulePending()
			arm()
		})
		g.timers = append(g.timers, t)
	}
	arm()
}

// Stop cancels the periodic scheduler and the replication pump.
func (g *GRM) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.started = false
	for _, t := range g.timers {
		t.Stop()
	}
	g.timers = nil
	repl := g.repl
	g.repl = nil
	g.mu.Unlock()
	// The async drainer observes stopped at its next loop iteration; wait
	// for it so Stop leaves no scheduling goroutine behind.
	g.drainWG.Wait()
	if repl != nil {
		repl.stop()
	}
}

// handleUpdate processes one Information Update Protocol message — the status
// and the windows decoded beside it — and returns the manager's fencing epoch
// for the reply. A consensus-managed replica that is not the leader refuses
// the update so the LRM re-resolves toward the leader instead of feeding a
// stale view — and so does a leader whose replication stream has lost its
// quorum: a partitioned primary that kept answering updates would keep its
// LRMs' fences pinned to the old epoch, leaving them obedient to a deposed
// manager.
//
// The update is recorded under g.mu and exported to the trader after it is
// released, through the place the node's record holds: the trader has locks of
// its own, so updates from different nodes upsert in parallel. A failure
// sweep that declares the node dead in between puts the offer back after its
// withdraw (restoreOffer); a departure in between takes the place, and the
// upsert through it is dropped (exportByRef).
func (g *GRM) handleUpdate(s *protocol.NodeStatus, windows []protocol.AvailWindow) (int, error) {
	now := g.clock.Now()
	epoch, place, moved, export, err := g.recordUpdate(s, windows, now)
	if err != nil {
		return 0, err
	}
	g.trader.Withdraw(moved)
	if export {
		g.exportStatusOffer(s, coveringWindow(windows, now), now, epoch, place)
	}
	return epoch, nil
}

// recordedIdentity returns the identity strings — node ID, LRM reference,
// platform and LAN — of the node record for the update d holds, or a zero
// status for a node it does not know, for DecodeUpdate to reuse: a node reports
// the same ones on every update, and the status is stored whole each time. It
// reads the node ID from its copy of the decoder, and decodes nothing under
// g.mu.
func (g *GRM) recordedIdentity(d orb.Decoder) protocol.NodeStatus {
	id := d.RawString()
	g.mu.Lock()
	defer g.mu.Unlock()
	lv := g.nodes[string(id)]
	if lv == nil {
		return protocol.NodeStatus{}
	}
	return protocol.NodeStatus{
		NodeID:   lv.status.NodeID,
		LRMRef:   lv.status.LRMRef,
		Platform: lv.status.Platform,
		LANID:    lv.status.LANID,
	}
}

// recordUpdate is handleUpdate's one section under g.mu: it refuses the update
// or records it — liveness, counters, the replication stream's copy — and
// returns the epoch for the reply, and recordStatusLocked's place to export
// through, place to withdraw and export decision.
func (g *GRM) recordUpdate(s *protocol.NodeStatus, windows []protocol.AvailWindow, now time.Time) (epoch int, place, moved trading.Place, export bool, err error) {
	g.mu.Lock()
	refuse := g.elect != nil && g.role != RolePrimary
	// Only a replica-set leader has a stream. repl.degraded takes the
	// replicator mutex, which nests inside g.mu (lock order g.mu -> repl.mu),
	// same as the enqueue below.
	degraded := !refuse && g.repl != nil && g.repl.degraded()
	if refuse || degraded {
		g.stats.UpdatesRefused++
		elect, epoch := g.elect, g.epoch
		g.mu.Unlock()
		if refuse {
			// elect.Leader takes the election mutex — read it outside g.mu.
			return 0, trading.Place{}, trading.Place{}, false, fmt.Errorf("grm: not the leader (leader=%q)", elect.Leader())
		}
		return 0, trading.Place{}, trading.Place{}, false, fmt.Errorf("grm: leader of epoch %d lost its replication quorum", epoch)
	}
	defer g.mu.Unlock()
	g.stats.UpdatesReceived++
	if age := now.Sub(s.Timestamp); age > 0 {
		g.stats.StalenessSum += age
	}
	place, moved, export = g.recordStatusLocked(s, windows, now)
	return g.epoch, place, moved, export, nil
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

// exportStatusOffer upserts the node's trader offer from its status and the
// window covering now, stamped with the manager's fencing epoch, through
// place, the one the node's record held when the status was recorded — or by
// reference when that is zero or dead (exportByRef). It reads no window of s:
// a record's windows are rewritten in place under g.mu, which this runs
// outside of.
func (g *GRM) exportStatusOffer(s *protocol.NodeStatus, win offerWindow, now time.Time, epoch int, place trading.Place) {
	// One value per name of statusSchema, in its order, on the stack: Upsert
	// copies them into the offer it stores.
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
		constraint.Number(float64(epoch)),
	}
	expires := now.Add(g.offerTTL)
	if !g.trader.Upsert(place, expires, statusSchema, values[:]) {
		g.exportByRef(s.NodeID, place, trading.Offer{
			ServiceType: NodeStatusType,
			Ref:         s.LRMRef,
			Expires:     expires,
			Properties:  statusSchema.Record(slices.Clone(values[:])),
		})
	}
}

// exportByRef exports a node's offer by reference — its first, its first since
// its place was taken, or one whose place died under it — and stores the place
// it gets back in the node's record when that changed it. A dead place the
// record still holds was swept with an expired offer, or withdrawn by a
// failure sweep the node outlived, and the offer is exported again; one the
// record no longer holds was taken, by a departure, a death or a move to a new
// reference, whose caller withdrew the offer, and nothing is exported. If the
// record is taken between the export and the store, the new place is
// withdrawn instead of kept.
func (g *GRM) exportByRef(id string, dead trading.Place, offer trading.Offer) {
	if dead != (trading.Place{}) {
		g.mu.Lock()
		lv := g.nodes[id]
		held := lv != nil && lv.place == dead
		g.mu.Unlock()
		if !held {
			return
		}
	}
	// ExportKeyed fails only on an empty service type, and NodeStatusType is
	// not one.
	place, _ := g.trader.ExportKeyed(offer)
	g.mu.Lock()
	lv := g.nodes[id]
	keep := lv != nil && lv.departUntil.IsZero() && lv.status.LRMRef == offer.Ref
	if keep && lv.place != place {
		lv.place = place
	}
	g.mu.Unlock()
	if !keep {
		g.trader.Withdraw(place)
	}
}

// KnownNodes returns the number of live node offers.
func (g *GRM) KnownNodes() int { return g.trader.Count(NodeStatusType) }

// Submit registers an application and enqueues it into the bounded
// admission queue. In the default synchronous mode the queue is drained
// before Submit returns — an immediate placement attempt, exactly the
// seed's submit-then-place semantics. Under WithAsyncAdmission Submit
// returns as soon as the app is queued and a background drainer batches
// placements. A full queue rejects with ErrAdmissionFull. The returned ID
// identifies the app in AppStatus.
func (g *GRM) Submit(spec protocol.ApplicationSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	g.mu.Lock()
	if len(g.admitQ) >= g.admitLimit {
		g.refuseLocked()
		g.mu.Unlock()
		return "", ErrAdmissionFull
	}
	g.seq++
	id := fmt.Sprintf("%s-app-%d", g.clusterID, g.seq)
	app := &appInfo{
		id:         id,
		seq:        g.seq,
		spec:       spec,
		constraint: buildConstraint(spec),
		submitted:  g.clock.Now(),
	}
	for i := 0; i < spec.NumTasks; i++ {
		app.tasks = append(app.tasks, &taskInfo{
			id:    fmt.Sprintf("%s/t%d", id, i),
			state: protocol.TaskPending,
			work:  spec.WorkPerTask,
		})
	}
	g.stats.Submissions++
	g.putAppLocked(app)
	g.queueLocked(app)
	async := g.asyncAdmit
	g.mu.Unlock()

	if async {
		g.kickDrain()
	} else {
		g.drainAdmission(false)
	}
	return id, nil
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
	return g.negotiate(app, tasks, g.windowFilter(ranked, app.spec), gang, avoid)
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
// first, retrying on refusal. The unit is the node, not the task: a node
// (never the one named avoid) is asked once, for a hold per task still
// missing, and granting fewer means it is full, so the next one is asked for
// the remainder — until nothing is missing or maxAttempts Reserves per task
// are spent. Independent tasks start node by node, one Execute for all that a
// node granted; a gang starts after its last grant, or not at all. A hold that
// does not end as a running task — its Execute failed, the gang was abandoned
// — is released. It reports how many of the tasks now run.
func (g *GRM) negotiate(app *appInfo, tasks []*taskInfo, candidates iter.Seq[*trading.Offer], gang bool, avoid string) int {
	alloc := app.spec.EffectiveAlloc()
	budget := g.maxAttempts * len(tasks)
	missing := tasks
	placed, attempts := 0, 0
	var held []nodeGrant // a gang's grants, waiting for its last
	for offer := range candidates {
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
		// Tested here, not at the top of the loop: resuming the range pulls —
		// pops off the ranking — a candidate nobody would try.
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
	reply, err := protocol.NewLRMClient(g.inv, ref).Reserve(protocol.ReserveRequest{
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
	if err := protocol.NewLRMClient(g.inv, gr.ref).Execute(req); err != nil {
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
		if err := protocol.NewLRMClient(g.inv, ref).Release(id); err != nil {
			g.log.Debug("release failed", "lrm", ref.Endpoint.Addr, "hold", id, "err", err)
		}
	}
}

// detectFailures declares dead every node whose heartbeats have stopped for
// longer than its suspect threshold, withdraws its trader offers and rolls
// back its in-flight tasks. A node needs at least two observed updates
// before it can be suspected: the threshold is derived from its cadence.
func (g *GRM) detectFailures() {
	now := g.clock.Now()
	g.mu.Lock()
	dead := g.declareDeadLocked(now)
	g.mu.Unlock()
	for _, d := range dead {
		g.bury(d)
	}
}

// declareDeadLocked is the failure detector's verdict: it forgets every node
// silent past its threshold, in node order, and returns them. Caller holds
// g.mu.
func (g *GRM) declareDeadLocked(now time.Time) []deadNode {
	var dead []deadNode
	for _, id := range slices.Sorted(maps.Keys(g.nodes)) {
		lv := g.nodes[id]
		if lv.updates < 2 {
			continue
		}
		if now.Before(lv.departUntil) {
			// Departing is not Suspect: the node said goodbye, its offer is
			// withdrawn and its tasks drained, so silence until the announced
			// deadline is expected, not a failure.
			continue
		}
		threshold := g.suspectAfter
		if threshold <= 0 {
			// Adaptive: three missed heartbeats at the node's own cadence,
			// never tighter than the offer TTL the trader already tolerates.
			threshold = max(3*lv.interval, g.offerTTL)
		}
		if now.Sub(lv.lastSeen) > threshold {
			dead = append(dead, deadNode{id, g.dropNodeLocked(id)})
			g.stats.NodesDeclaredDead++
		}
	}
	return dead
}

// bury carries out a verdict outside g.mu: the node's offer is withdrawn —
// and put back if a heartbeat re-registered the node meanwhile — and its
// tasks are rolled back.
func (g *GRM) bury(d deadNode) {
	g.trader.Withdraw(d.place)
	g.restoreOffer(d.id)
	g.evictNodeTasks(d.id)
}

// restoreOffer re-exports, by reference, the offer of a node the sweep declared
// dead but a heartbeat has re-registered since: that heartbeat may have
// exported before the sweep's withdraw, which took the offer away, and even
// kept the withdrawn place. The status and instant are the ones the node's
// newest update recorded, so the offer is the one that update exported; an
// update racing this export exports its own.
func (g *GRM) restoreOffer(nodeID string) {
	g.mu.Lock()
	lv := g.nodes[nodeID]
	if lv == nil || !lv.departUntil.IsZero() {
		g.mu.Unlock()
		return
	}
	// The next update rewrites the record's windows in place: take the
	// covering one before unlocking.
	s, seen, epoch := lv.status, lv.lastSeen, g.epoch
	win := coveringWindow(s.Windows, seen)
	g.mu.Unlock()
	g.exportStatusOffer(&s, win, seen, epoch, trading.Place{})
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
		if _, err := protocol.NewLRMClient(g.inv, t.ref).Cancel(t.id, g.Epoch()); err != nil {
			g.log.Debug(msg, "task", t.id, "err", err)
		}
	}
}

// HandleNotify processes an LRM task event.
func (g *GRM) HandleNotify(ev protocol.TaskEvent) {
	g.mu.Lock()
	app, ok := g.apps[ev.AppID]
	if !ok {
		g.mu.Unlock()
		return
	}
	task := app.task(ev.TaskID)
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
		g.progressLocked(app, task, ev.Progress)
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
		g.progressLocked(app, task, ev.Progress)
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
		g.progressLocked(app, task, ev.Progress)
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
			t = app.task(claim.TaskID)
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
	st := protocol.AppStatus{
		AppID:        app.id,
		Name:         app.spec.Name,
		Kind:         app.spec.Kind,
		Submitted:    app.submitted,
		Finished:     app.finished,
		Negotiations: app.negotiations,
	}
	for _, t := range app.tasks {
		st.Tasks = append(st.Tasks, protocol.TaskStatus{
			TaskID:   t.id,
			NodeID:   t.nodeID,
			State:    t.state,
			Progress: t.progress,
			Work:     t.work,
			Restarts: t.restarts,
		})
	}
	return st, nil
}

// AppIDs returns all known application IDs, sorted.
func (g *GRM) AppIDs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Sorted(maps.Keys(g.apps))
}

// buildConstraint translates an application spec into a trader constraint.
func buildConstraint(spec protocol.ApplicationSpec) string {
	alloc := spec.EffectiveAlloc()
	var parts []string
	add := func(format string, args ...any) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	add("%s >= %g", PropMIPSFree, alloc.MIPS)
	add("%s >= %g", PropRAMFree, alloc.RAMMB)
	if alloc.DiskMB > 0 {
		add("%s >= %g", PropDiskFree, alloc.DiskMB)
	}
	if alloc.NetMbps > 0 {
		add("%s >= %g", PropNetFree, alloc.NetMbps)
	}
	min := spec.Requirements.Min
	if min.MIPS > 0 {
		add("%s >= %g", PropMIPSTotal, min.MIPS)
	}
	if min.RAMMB > 0 {
		add("ram_total >= %g", min.RAMMB)
	}
	if p := spec.Requirements.Platform; p != nil {
		add("%s == '%s'", PropOS, p.OS)
		add("%s == '%s'", PropArch, p.Arch)
	}
	if spec.Constraint != "" {
		add("(%s)", spec.Constraint)
	}
	return strings.Join(parts, " and ")
}

// Package lrm implements the Local Resource Manager: the per-node agent
// that collects node status, sends it periodically to the GRM (Information
// Update Protocol), answers reservation negotiations, executes grid tasks
// under the NCC policy, and feeds the node's LUPA.
//
// Per the paper: "The LRM is executed in each cluster node, collecting
// information about the node status, such as memory, CPU, disk, and network
// usage. LRMs send this information periodically to the GRM."
package lrm

import (
	"hash/fnv"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/lupa"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

// DefaultUpdatePeriod is the Information Update Protocol cadence.
const DefaultUpdatePeriod = 30 * time.Second

// reregisterAfter is how many consecutive update failures turn the update
// loop to the resolver: one failure may be a transient fault the next
// periodic update absorbs; two in a row suggest the GRM itself is gone.
const reregisterAfter = 2

// Re-registration attempt n waits min(reregisterCap, reregisterBase<<(n-1)),
// scaled by a deterministic per-node jitter, so a cluster's worth of orphaned
// LRMs does not stampede the reborn GRM.
const (
	reregisterBase = 5 * time.Second
	reregisterCap  = 10 * time.Second
)

// reregisterDelay is the pause before re-registration attempt n (n >= 1) of
// the node: the capped exponential delay scaled by a factor in [0.5, 1.0)
// taken from an FNV-1a hash of the node, "reregister" and n's low byte. The
// jitter needs no random source, so a fixed fault schedule reproduces
// identical timers.
func reregisterDelay(nodeID string, attempt int) time.Duration {
	d := reregisterBase
	for i := 1; i < attempt && d < reregisterCap; i++ {
		d *= 2
	}
	d = min(d, reregisterCap)
	h := fnv.New64a()
	h.Write([]byte(nodeID))
	h.Write([]byte("reregister"))
	h.Write([]byte{byte(attempt)})
	frac := 0.5 + 0.5*float64(h.Sum64()>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// Stats are cumulative LRM counters for experiments.
type Stats struct {
	UpdatesSent      int
	UpdateFailures   int
	Reregistrations  int // successful re-registrations with a (new) GRM
	OrphansCancelled int // tasks reaped because the GRM disowned them
	ReserveRequests  int // Reserve calls answered
	ReserveGrants    int // holds granted; one call may grant several
	ReserveRefusals  int // Reserve calls that granted no hold
	TasksStarted     int
	TasksCompleted   int
	TasksEvicted     int
	// TasksDrained counts grid tasks cancelled at exact progress by the
	// proactive pre-departure drain (WithDepartureDrain).
	TasksDrained int
	// DepartureNotices counts graceful departures announced ahead of a
	// predicted owner return: each a deadline the updates carry until it
	// passes.
	DepartureNotices int
	// StaleEpochRejections counts writes refused because they carried a
	// fencing epoch older than the newest this LRM has seen — the deposed
	// primary being fenced out.
	StaleEpochRejections int
}

// LRM is one node's local resource manager.
type LRM struct {
	node     *node.Node
	clock    sim.Clock
	inv      orb.Invoker
	selfRef  orb.ObjectRef
	analyzer *lupa.Analyzer
	log      *slog.Logger

	updatePeriod time.Duration
	reserveTTL   time.Duration
	resolver     func(leaving orb.ObjectRef) (orb.ObjectRef, error) // re-resolves the GRM ref; may be nil
	reregDelay   func(nodeID string, attempt int) time.Duration
	drainLead    time.Duration // 0 = proactive pre-departure drain disabled

	// mu guards grm, taskApp, outbox, windows, stats, stopped, timers,
	// started, fence, consecFails, adopting and departUntil.
	// It must be released before GRM RPCs (Update, Reconcile), which block on
	// the remote side. Snapshot collection reads the node's running set under it, so
	// l.mu nests outside the node's lock.
	//lint:lockorder lrm.LRM.mu<node.Node.mu
	mu      sync.Mutex
	grm     *protocol.GRMClient
	taskApp map[string]string // taskID -> appID
	// outbox holds the Done, Evicted and Drained events of tasks that ended
	// on this node since the last update a manager accepted, oldest first.
	// The next update carries them, but for those of a task that runs here
	// again, which speak of an earlier run; one that fails or is refused puts
	// them back, so each is delivered at least once while this LRM lives.
	// One that is accepted hands its events' array back, cleared, as the
	// outbox the next events go into, unless some were queued meanwhile.
	outbox []protocol.TaskEvent
	// windows is the array an update's status carries its windows in. An
	// update takes it, leaving nil, and gives it back when sent: a concurrent
	// one builds its status in an array of its own.
	windows *[protocol.MaxWindows]protocol.AvailWindow
	stats   Stats
	stopped bool
	timers  [numLoops]sim.TimerSlot // the armed timer of each loop
	started bool
	// fence is the newest manager epoch this LRM has witnessed; writes
	// carrying an older epoch come from a deposed primary and are refused.
	// Every manager stamps an epoch of at least 1.
	fence int
	// consecFails counts the updates in a row that failed. From
	// reregisterAfter on, with a resolver, updates go to the manager it names
	// and the update loop fires at the re-registration pace.
	consecFails int
	// adopting is the leader whose Adopt call the update loop's next firing
	// registers with; zero when no call is pending.
	adopting orb.ObjectRef
	// departUntil is the predicted owner-return deadline of the last drain,
	// which every update's status carries while it lies ahead. The drain
	// watch stays quiet until it (plus the lead) has passed, so one predicted
	// departure fires one drain.
	departUntil time.Time
}

// Option configures an LRM.
type Option func(*LRM)

// WithUpdatePeriod sets the information-update cadence.
func WithUpdatePeriod(d time.Duration) Option {
	return func(l *LRM) { l.updatePeriod = d }
}

// WithLogger sets the logger.
func WithLogger(log *slog.Logger) Option {
	return func(l *LRM) { l.log = log }
}

// WithGRMResolver installs a resolver (a Naming lookup, or a Rotation through
// a replica set's members) the LRM uses to re-locate its GRM after repeated
// update failures; it is handed the manager the LRM is leaving. Without one,
// only a forward or a leader's call moves it.
func WithGRMResolver(fn func(leaving orb.ObjectRef) (orb.ObjectRef, error)) Option {
	return func(l *LRM) { l.resolver = fn }
}

// Rotation is a resolver that names refs in turn, from the one after the
// first, passing over the manager being left while it has another to name.
func Rotation(refs ...orb.ObjectRef) func(leaving orb.ObjectRef) (orb.ObjectRef, error) {
	var next atomic.Int64
	return func(leaving orb.ObjectRef) (orb.ObjectRef, error) {
		var ref orb.ObjectRef
		for range refs {
			if ref = refs[int(next.Add(1))%len(refs)]; ref != leaving {
				break
			}
		}
		return ref, nil
	}
}

// DefaultDrainLead is the pre-departure lead time used when
// WithDepartureDrain is given a non-positive lead.
const DefaultDrainLead = 10 * time.Minute

// WithDepartureDrain enables the proactive pre-departure drain: when the
// node's LUPA predicts the owner returns within lead, the LRM cancels its
// grid tasks at their exact progress (reporting each as TaskEventDrained —
// the proactive checkpoint), announces the departure to the GRM, and lets
// the scheduler re-place the work elsewhere before the owner arrives. The
// failure detector and checkpoint rollback remain the fallback for
// unpredicted departures. Disabled by default so window-blind deployments
// keep the seed semantics.
func WithDepartureDrain(lead time.Duration) Option {
	return func(l *LRM) {
		if lead <= 0 {
			lead = DefaultDrainLead
		}
		l.drainLead = lead
	}
}

// New returns an LRM managing n, reporting to the GRM at grmRef, reachable
// at selfRef. Dedicated nodes get no LUPA, per the paper's footnote ("The
// LUPA is not executed in dedicated nodes").
func New(n *node.Node, clock sim.Clock, inv orb.Invoker, selfRef orb.ObjectRef, grmRef orb.ObjectRef, opts ...Option) *LRM {
	l := &LRM{
		node:         n,
		clock:        clock,
		inv:          inv,
		selfRef:      selfRef,
		grm:          protocol.NewGRMClient(inv, grmRef),
		log:          slog.New(slog.DiscardHandler),
		updatePeriod: DefaultUpdatePeriod,
		reserveTTL:   time.Minute,
		reregDelay:   reregisterDelay,
		taskApp:      make(map[string]string),
	}
	if !n.Dedicated() {
		// The LUPA's seed is an FNV-1a hash of the node ID.
		h := fnv.New32a()
		h.Write([]byte(n.ID()))
		l.analyzer = lupa.NewAnalyzer(int64(h.Sum32()))
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Node returns the managed node.
func (l *LRM) Node() *node.Node { return l.node }

// Stats returns a snapshot of the counters.
func (l *LRM) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Start launches the periodic loops: status updates (and with them
// re-registration), usage sampling + task-sync, and daily pattern retraining.
func (l *LRM) Start() {
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return
	}
	l.started = true
	l.stopped = false
	l.mu.Unlock()

	l.schedule(loopUpdate, l.updatePeriod, l.updateTick)
	l.schedule(loopSample, usage.Interval, l.sampleTick)
	if l.analyzer != nil {
		l.schedule(loopRetrain, 24*time.Hour, l.retrainTick)
	}
}

// Stop cancels the loops.
func (l *LRM) Stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stopped = true
	l.started = false
	for k := range l.timers {
		l.timers[k].Stop()
	}
}

// The LRM's timer loops, the ones Start arms.
const (
	loopUpdate = iota
	loopSample
	loopRetrain
	numLoops
)

// schedule arms loop k to run fn after d, and again after each delay fn
// returns, until Stop.
func (l *LRM) schedule(k int, d time.Duration, fn func() time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scheduleLocked(k, d, fn)
}

// scheduleLocked is schedule with l.mu held.
func (l *LRM) scheduleLocked(k int, d time.Duration, fn func() time.Duration) {
	if l.stopped {
		return
	}
	l.timers[k].Set(l.clock.AfterFunc(d, func() { l.schedule(k, fn(), fn) }))
}

// updateTick is one firing of the update loop, the only way the LRM
// registers with a manager on its own: it sends one update to the leader
// whose Adopt call is pending, or else where SendUpdate sends it. The next
// firing is an update period later, or, while the LRM re-registers, after the
// pause before its next attempt.
func (l *LRM) updateTick() time.Duration {
	l.mu.Lock()
	leader := l.adopting
	l.adopting = orb.ObjectRef{}
	l.mu.Unlock()
	l.sendUpdate(leader, false)
	l.mu.Lock()
	defer l.mu.Unlock()
	if attempt := l.consecFails - reregisterAfter + 1; attempt > 0 && l.resolver != nil {
		return l.reregDelay(l.node.ID(), attempt)
	}
	return l.updatePeriod
}

// SendUpdate pushes one Information Update Protocol message now, following
// a refusal that names the leader (register). Task execution is synced first
// so the reported free capacity and the events the update carries reflect
// the present. Once reregisterAfter updates in a row have failed — an answer
// from a manager whose epoch is stale, i.e. a deposed primary still
// reachable, counts as a failure — and a resolver is configured, the update
// goes to the manager the resolver names: the LRM re-registers.
func (l *LRM) SendUpdate() { l.sendUpdate(orb.ObjectRef{}, false) }

// sendUpdate is SendUpdate, sent to leader instead when it is set. A prompted
// update is one sent at once to report an eviction or a drain, outside the
// update cadence: its status says so, and the manager does not count it as a
// heartbeat.
func (l *LRM) sendUpdate(leader orb.ObjectRef, prompted bool) {
	l.syncTasks()
	l.mu.Lock()
	prev := l.grm
	relocate := l.resolver != nil && l.consecFails >= reregisterAfter
	l.mu.Unlock()
	client := prev
	var err error
	switch {
	case !leader.IsZero():
		client = protocol.NewGRMClient(l.inv, leader)
	case relocate:
		var ref orb.ObjectRef
		if ref, err = l.resolver(prev.Ref()); err == nil {
			client = protocol.NewGRMClient(l.inv, ref)
		}
	}
	if err == nil {
		err = l.register(client, prev, prompted)
	}
	if err != nil {
		l.log.Debug("information update failed", "node", l.node.ID(), "err", err)
		l.mu.Lock()
		l.stats.UpdateFailures++
		l.consecFails++
		entering := l.resolver != nil && l.consecFails == reregisterAfter
		l.mu.Unlock()
		if entering {
			l.log.Info("GRM unreachable, entering re-registration",
				"node", l.node.ID(), "failures", reregisterAfter)
		}
	}
}

// register sends an update to client and, when the manager refuses it with
// a forward to the leader, once more to the manager the forward names: one
// hop an attempt. When the manager that accepts it is not prev, the one this
// LRM reported to when the update was addressed, the LRM adopts it and
// reconciles its running tasks with it, unless another update moved the LRM
// while this one was on its way: an external SendUpdate may run beside the
// update loop.
func (l *LRM) register(client, prev *protocol.GRMClient, prompted bool) error {
	if err := l.pushUpdate(client, prompted); err != nil {
		ref, ok := orb.Forwarded(err)
		if !ok {
			return err
		}
		client = protocol.NewGRMClient(l.inv, ref)
		if err := l.pushUpdate(client, prompted); err != nil {
			return err
		}
	}
	l.mu.Lock()
	adopt := client != l.grm && l.grm == prev
	if adopt {
		l.grm = client
		l.stats.Reregistrations++
	}
	l.consecFails = 0
	l.stats.UpdatesSent++
	l.mu.Unlock()
	if adopt {
		l.log.Info("re-registered with GRM", "node", l.node.ID(), "grm", client.Ref().Endpoint.Addr)
		l.reconcile(client)
	}
	return nil
}

// pushUpdate sends the node's status to client together with the outbox and
// a progress snapshot of every running task, and adopts the manager's epoch.
// The status carries the departure deadline of the last drain while it lies
// ahead.
// If the update fails, or is answered by a manager whose epoch is stale, the
// outbox's events go back to its front: the manager may have applied them and
// lost only the reply, so it must tolerate seeing them again. Progress is not
// kept — the next update snapshots it afresh.
func (l *LRM) pushUpdate(client *protocol.GRMClient, prompted bool) error {
	l.mu.Lock()
	win := l.windows
	l.windows = nil
	departUntil := l.departUntil
	l.mu.Unlock()
	if win == nil {
		win = new([protocol.MaxWindows]protocol.AvailWindow)
	}
	status, windows := l.status(win)
	status.Windows = windows
	status.Prompted = prompted
	if status.Timestamp.Before(departUntil) {
		status.DepartUntil = departUntil
	}
	l.mu.Lock()
	snaps := l.node.RunningSnapshots()
	// The manager re-placed a task that runs here again: its events speak of
	// an earlier run, and an eviction retold would end the new one.
	events := slices.Grow(slices.DeleteFunc(l.outbox, func(ev protocol.TaskEvent) bool {
		_, rerun := l.taskApp[ev.TaskID]
		return rerun
	}), len(snaps))
	l.outbox = nil
	done := len(events)
	for _, snap := range snaps {
		events = append(events, protocol.TaskEvent{
			Kind:     protocol.TaskEventProgress,
			AppID:    l.taskApp[snap.ID],
			TaskID:   snap.ID,
			NodeID:   l.node.ID(),
			Progress: snap.Progress,
			At:       status.Timestamp,
		})
	}
	l.mu.Unlock()
	epoch, err := client.Update(status, events...)
	if err == nil && l.staleManager(epoch) {
		err = orb.Errorf(orb.CodeApplication, "manager epoch %d is stale", epoch)
	}
	l.mu.Lock()
	l.windows = win
	switch {
	case err != nil && done > 0:
		l.outbox = append(events[:done:done], l.outbox...)
	case err == nil && l.outbox == nil:
		clear(events)
		l.outbox = events[:0]
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.adoptEpoch(epoch)
	return nil
}

// staleManager reports whether a reply epoch identifies a deposed primary,
// counting the rejection.
func (l *LRM) staleManager(epoch int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch < l.fence {
		l.stats.StaleEpochRejections++
		return true
	}
	return false
}

// adoptEpoch advances the fence to a newer manager epoch.
func (l *LRM) adoptEpoch(epoch int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch > l.fence {
		l.fence = epoch
	}
}

// Fence returns the newest manager epoch this LRM has witnessed.
func (l *LRM) Fence() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fence
}

// admitEpoch gates one inbound manager write: an epoch at or above the fence
// advances it, and anything older is refused and counted.
func (l *LRM) admitEpoch(epoch int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch < l.fence {
		l.stats.StaleEpochRejections++
		return false
	}
	l.fence = epoch
	return true
}

// reconcile reports the node's running tasks to the GRM it just registered
// with and cancels the ones the GRM disowns — the orphaned placements of a
// dead manager, whose committed capacity would otherwise stay leaked until
// their (effectively unbounded) work completed.
func (l *LRM) reconcile(client *protocol.GRMClient) {
	req := protocol.ReconcileRequest{NodeID: l.node.ID()}
	l.mu.Lock()
	for _, snap := range l.node.RunningSnapshots() {
		req.Claims = append(req.Claims, protocol.TaskClaim{
			TaskID: snap.ID,
			AppID:  l.taskApp[snap.ID],
		})
	}
	l.mu.Unlock()
	if len(req.Claims) == 0 {
		return
	}
	orphans, err := client.Reconcile(req)
	if err != nil {
		l.log.Debug("task reconciliation failed", "node", l.node.ID(), "err", err)
		return
	}
	for _, taskID := range orphans {
		l.handleCancel(taskID)
		l.mu.Lock()
		l.stats.OrphansCancelled++
		l.mu.Unlock()
		l.log.Debug("cancelled orphan task", "node", l.node.ID(), "task", taskID)
	}
}

// ForecastHorizon is how far ahead the LRM publishes availability windows
// in its status updates.
const ForecastHorizon = 24 * time.Hour

// Status builds the node's current NodeStatus.
func (l *LRM) Status() protocol.NodeStatus {
	var buf [protocol.MaxWindows]protocol.AvailWindow
	s, windows := l.status(&buf)
	if len(windows) > 0 {
		s.Windows = slices.Clone(windows)
	}
	return s
}

// status builds the node's current NodeStatus, its windows in buf and returned
// beside it, with Windows nil: a buf on the caller's stack stays there.
func (l *LRM) status(buf *[protocol.MaxWindows]protocol.AvailWindow) (protocol.NodeStatus, []protocol.AvailWindow) {
	now := l.clock.Now()
	spec := l.node.Spec()
	free := l.gridFree(now)
	var predicted time.Duration
	var windows []protocol.AvailWindow
	if l.analyzer != nil {
		if span, ok := l.analyzer.PredictIdle(now); ok {
			predicted = span
		}
		forecast := l.analyzer.Forecast(now, ForecastHorizon)
		windows = buf[:min(len(forecast), protocol.MaxWindows)]
		for i, w := range forecast[:len(windows)] {
			windows[i] = protocol.AvailWindow{Start: w.Start, End: w.End, Confidence: w.Confidence}
		}
	} else if l.node.Dedicated() && !l.node.IsDown(now) {
		predicted = 24 * time.Hour
		windows = buf[:1]
		windows[0] = protocol.AvailWindow{Start: now, End: now.Add(ForecastHorizon), Confidence: 1}
	}
	return protocol.NodeStatus{
		NodeID:        l.node.ID(),
		LRMRef:        l.selfRef,
		Platform:      spec.Platform,
		LANID:         spec.LANID,
		Capacity:      spec.Capacity,
		GridFree:      free,
		Dedicated:     l.node.Dedicated(),
		OwnerBusy:     l.node.OwnerActivity(now).Busy(),
		PredictedIdle: predicted,
		Timestamp:     now,
	}, windows
}

// gridFree computes what the grid could commit right now: the ledger's free
// amount, further limited by the instantaneous NCC share.
func (l *LRM) gridFree(now time.Time) resource.Vector {
	share := l.node.Share(now)
	if !share.Allowed {
		return resource.Vector{}
	}
	ledger := l.node.Ledger()
	ledgerFree := ledger.Free(now)
	used := ledger.Capacity().Sub(ledgerFree)
	capNow := l.node.GridCapacity(now)
	return capNow.Sub(used).Clamp().Min(ledgerFree)
}

// sampleTick feeds the LUPA, advances task execution, and runs the
// pre-departure watch (SyncTasks first, so drained tasks report progress
// advanced to now). It fires every usage interval.
func (l *LRM) sampleTick() time.Duration {
	now := l.clock.Now()
	if l.analyzer != nil {
		l.analyzer.Record(now, l.node.OwnerActivity(now))
	}
	l.SyncTasks()
	l.departureWatch(now)
	return usage.Interval
}

// departureWatch fires the graceful-departure drain when the LUPA predicts
// the owner returns within the configured lead: every running grid task is
// cancelled at its exact progress and its Drained event queued (zero lost
// work — the proactive checkpoint), then the deadline is recorded and a
// prompted update sent at once with the events: its status, and every one
// after it until the deadline, tells the GRM to withdraw the node's offer and
// mark it Departing instead of waiting for the heartbeat-miss Suspect
// threshold. An update that fails leaves the next one to announce it.
func (l *LRM) departureWatch(now time.Time) {
	l.mu.Lock()
	lead := l.drainLead
	cool := l.departUntil.Add(lead)
	stopped := l.stopped
	l.mu.Unlock()
	if lead <= 0 || l.analyzer == nil || stopped || now.Before(cool) {
		return
	}
	if l.node.IsDown(now) || l.node.OwnerActivity(now).Busy() {
		return
	}
	span, ok := l.analyzer.PredictIdle(now)
	if !ok || span <= 0 || span > lead {
		return
	}
	deadline := now.Add(span)
	drained := 0
	for _, snap := range l.node.RunningSnapshots() {
		task := l.node.CancelTask(now, snap.ID)
		if task == nil {
			continue
		}
		l.mu.Lock()
		l.endTaskLocked(protocol.TaskEventDrained, task, now)
		l.mu.Unlock()
		drained++
	}
	l.mu.Lock()
	l.stats.TasksDrained += drained
	l.stats.DepartureNotices++
	l.departUntil = deadline
	l.mu.Unlock()
	l.log.Debug("announcing graceful departure",
		"node", l.node.ID(), "deadline", deadline, "drained", drained)
	l.sendUpdate(orb.ObjectRef{}, true)
}

// SyncTasks advances the node's task execution to now. Completions and
// evictions go to the outbox and reach the GRM with the next update; a sync
// that evicted a task sends that update at once, prompted, because the GRM
// re-places the task on hearing of it.
func (l *LRM) SyncTasks() {
	if l.syncTasks() > 0 {
		l.sendUpdate(orb.ObjectRef{}, true)
	}
}

// syncTasks is SyncTasks without the prompted update: it returns how many
// tasks the sync evicted.
func (l *LRM) syncTasks() int {
	now := l.clock.Now()
	done, evicted := l.node.Sync(now)
	if len(done)+len(evicted) > 0 {
		l.mu.Lock()
		for _, t := range done {
			l.endTaskLocked(protocol.TaskEventDone, t, now)
		}
		for _, t := range evicted {
			l.endTaskLocked(protocol.TaskEventEvicted, t, now)
		}
		l.stats.TasksCompleted += len(done)
		l.stats.TasksEvicted += len(evicted)
		l.mu.Unlock()
	}
	return len(evicted)
}

// ReportEvicted reports tasks evicted outside the LRM's own sync (e.g. by a
// node crash handled above it): their events go to the outbox and one
// prompted update carries them to the GRM at once.
func (l *LRM) ReportEvicted(tasks []*node.Task) {
	if len(tasks) == 0 {
		return
	}
	now := l.clock.Now()
	l.mu.Lock()
	for _, t := range tasks {
		l.endTaskLocked(protocol.TaskEventEvicted, t, now)
	}
	l.stats.TasksEvicted += len(tasks)
	l.mu.Unlock()
	l.sendUpdate(orb.ObjectRef{}, true)
}

// endTaskLocked queues the event of the given kind that reports t, as it
// stands, ended on this node, and forgets the task. Caller holds l.mu.
func (l *LRM) endTaskLocked(kind protocol.TaskEventKind, t *node.Task, now time.Time) {
	l.outbox = append(l.outbox, protocol.TaskEvent{
		Kind:     kind,
		AppID:    l.taskApp[t.ID],
		TaskID:   t.ID,
		NodeID:   l.node.ID(),
		Progress: t.Progress(),
		At:       now,
	})
	delete(l.taskApp, t.ID)
}

// retrainTick retrains the LUPA daily; the next update carries its forecast.
// Start schedules it only on nodes with a LUPA. An error means there is not
// enough history yet.
func (l *LRM) retrainTick() time.Duration {
	_ = l.analyzer.Retrain()
	return 24 * time.Hour
}

// Servant exposes the LRM's reservation/execution interface.
func (l *LRM) Servant() orb.Servant {
	m := orb.NewOpMux()
	orb.Serve(m, protocol.Reserve, func(r protocol.ReserveRequest) (protocol.ReserveReply, error) {
		return l.handleReserve(r), nil
	})
	orb.Serve(m, protocol.Release, func(id string) (struct{}, error) {
		// Unknown or already-expired reservations are fine to release.
		_ = l.node.Ledger().Cancel(id)
		return struct{}{}, nil
	})
	orb.Serve(m, protocol.Execute, func(r protocol.ExecuteRequest) (struct{}, error) {
		return struct{}{}, l.handleExecute(r)
	})
	orb.Serve(m, protocol.Cancel, func(r protocol.CancelRequest) (float64, error) {
		// A deposed primary must not kill tasks the new leader owns.
		if !l.admitEpoch(r.Epoch) {
			return 0, nil
		}
		return l.handleCancel(r.TaskID), nil
	})
	// A new leader's call: past the fence, a manager this LRM does not report
	// to is the one the update loop's next firing goes to, and the loop fires
	// at once, on its timer, so that the handler never calls the GRM back
	// while the GRM waits on it. A later call replaces one whose firing has
	// not come: the LRM registers with the newest leader only.
	orb.Serve(m, protocol.Adopt, func(r protocol.AdoptRequest) (struct{}, error) {
		if !l.admitEpoch(r.Epoch) {
			return struct{}{}, orb.Errorf(orb.CodeApplication, "adopt: stale manager epoch %d", r.Epoch)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.grm.Ref() != r.GRM {
			l.adopting = r.GRM
			l.scheduleLocked(loopUpdate, 0, l.updateTick)
		}
		return struct{}{}, nil
	})
	return m
}

// handleReserve is the negotiation step: the LRM re-checks that it actually
// has the resources at this moment and holds as many of the r.Count amounts
// asked for as it has room for, each checked against what the ones before it
// left free. No hold at all is a refusal.
func (l *LRM) handleReserve(r protocol.ReserveRequest) protocol.ReserveReply {
	now := l.clock.Now()
	l.mu.Lock()
	l.stats.ReserveRequests++
	l.mu.Unlock()

	refuse := func(reason string) protocol.ReserveReply {
		l.mu.Lock()
		l.stats.ReserveRefusals++
		l.mu.Unlock()
		return protocol.ReserveReply{Reason: reason}
	}

	if !l.admitEpoch(r.Epoch) {
		return refuse("stale manager epoch")
	}
	if l.node.IsDown(now) {
		return refuse("node down")
	}
	share := l.node.Share(now)
	if !share.Allowed {
		return refuse("sharing not allowed now")
	}
	ttl := r.TTL
	if ttl <= 0 {
		ttl = l.reserveTTL
	}
	var ids []string
	var full string // why the first hold not granted was not
	for len(ids) < r.Count {
		if !r.Amount.Fits(l.gridFree(now)) {
			full = "insufficient free capacity"
			break
		}
		res, err := l.node.Ledger().Reserve(r.Amount, r.Holder, now, now.Add(ttl))
		if err != nil {
			full = err.Error()
			break
		}
		ids = append(ids, res.ID)
	}
	if len(ids) == 0 {
		return refuse(full)
	}
	l.mu.Lock()
	l.stats.ReserveGrants += len(ids)
	l.mu.Unlock()
	return protocol.ReserveReply{Granted: true, ReservationID: ids[0], Reason: full, More: ids[1:]}
}

// handleExecute commits the reservations of r and starts its tasks, all or
// none: when one cannot be committed or started, the tasks already started
// are cancelled and their amounts freed before the error is returned.
func (l *LRM) handleExecute(r protocol.ExecuteRequest) error {
	now := l.clock.Now()
	if !l.admitEpoch(r.Epoch) {
		return orb.Errorf(orb.CodeApplication, "execute for %s: stale manager epoch %d", r.AppID, r.Epoch)
	}
	for i, t := range r.Tasks {
		err := l.node.Ledger().Commit(t.ReservationID, now)
		if err == nil {
			task := node.Task{ID: t.TaskID, Work: t.Work, Alloc: r.Alloc}
			task.SetProgress(t.InitialProgress)
			if err = l.node.StartTask(now, task); err != nil {
				l.node.Ledger().Release(r.Alloc)
			}
		}
		if err != nil {
			for _, started := range r.Tasks[:i] {
				l.node.CancelTask(now, started.TaskID)
			}
			return orb.Errorf(orb.CodeApplication, "execute %s on %s: %v", t.TaskID, t.ReservationID, err)
		}
	}
	l.mu.Lock()
	for _, t := range r.Tasks {
		l.taskApp[t.TaskID] = r.AppID
	}
	l.stats.TasksStarted += len(r.Tasks)
	l.mu.Unlock()
	return nil
}

func (l *LRM) handleCancel(taskID string) float64 {
	now := l.clock.Now()
	task := l.node.CancelTask(now, taskID)
	l.mu.Lock()
	delete(l.taskApp, taskID)
	l.mu.Unlock()
	if task == nil {
		return 0
	}
	return task.Progress()
}

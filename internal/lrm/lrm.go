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
	"log/slog"
	"slices"
	"sync"
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

// reregisterAfter is how many consecutive update failures trigger the
// re-registration loop: one failure may be a transient fault the next
// periodic update absorbs; two in a row suggest the GRM itself is gone.
const reregisterAfter = 2

// DefaultReregisterBackoff paces re-registration attempts: capped
// exponential with the orb client's deterministic per-node jitter, so a
// cluster's worth of orphaned LRMs does not stampede the reborn GRM.
var DefaultReregisterBackoff = orb.BackoffPolicy{Base: 5 * time.Second, Cap: time.Minute}

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
	// DepartureNotices counts graceful-departure announcements sent to the
	// GRM ahead of a predicted owner return.
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
	resolver     func() (orb.ObjectRef, error) // re-resolves the GRM ref; may be nil
	reregBackoff orb.BackoffPolicy
	drainLead    time.Duration // 0 = proactive pre-departure drain disabled

	// mu guards grm, taskApp, outbox, stats, stopped, timers, started,
	// fence, consecFails, rereg and reregAttempt. It must be released before
	// GRM RPCs (Update/Notify), which block on the remote side. Snapshot
	// collection reads the node's running set under it, so l.mu nests
	// outside the node's lock.
	//lint:lockorder lrm.LRM.mu<node.Node.mu
	mu      sync.Mutex
	grm     *protocol.GRMClient
	taskApp map[string]string // taskID -> appID
	// outbox holds the Done events of tasks that finished since the last
	// update a manager accepted, oldest first. The next update carries them;
	// one that fails or is refused puts them back, so a completion is
	// delivered at least once while this LRM lives.
	outbox  []protocol.TaskEvent
	stats   Stats
	stopped bool
	timers  []sim.Timer
	started bool
	// fence is the newest manager epoch this LRM has witnessed; writes
	// carrying an older epoch come from a deposed primary and are refused.
	// Every manager stamps an epoch of at least 1.
	fence int
	// Re-registration loop state: consecutive update failures observed, and
	// whether the backoff-paced re-register loop is currently armed.
	consecFails  int
	rereg        bool
	reregAttempt int
	// drainCoolUntil suppresses repeated drain firings for one predicted
	// departure: after a drain, the watch stays quiet until the predicted
	// owner-return deadline (plus the lead) has passed.
	drainCoolUntil time.Time
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

// WithGRMResolver installs a resolver (typically a Naming lookup) the LRM
// uses to re-locate its GRM after repeated update failures. Without one, the
// LRM keeps pushing to the original reference and never re-registers.
func WithGRMResolver(fn func() (orb.ObjectRef, error)) Option {
	return func(l *LRM) { l.resolver = fn }
}

// WithReregisterBackoff overrides the re-registration pacing policy.
func WithReregisterBackoff(p orb.BackoffPolicy) Option {
	return func(l *LRM) { l.reregBackoff = p }
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
		reregBackoff: DefaultReregisterBackoff,
		taskApp:      make(map[string]string),
	}
	if !n.Dedicated() {
		l.analyzer = lupa.NewAnalyzer(int64(fnv(n.ID())))
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Node returns the managed node.
func (l *LRM) Node() *node.Node { return l.node }

// Ref returns the LRM's own object reference.
func (l *LRM) Ref() orb.ObjectRef { return l.selfRef }

// Analyzer returns the node's LUPA (nil on dedicated nodes).
func (l *LRM) Analyzer() *lupa.Analyzer { return l.analyzer }

// Stats returns a snapshot of the counters.
func (l *LRM) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Start launches the periodic loops: status updates, usage sampling +
// task-sync, and daily pattern retraining.
func (l *LRM) Start() {
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return
	}
	l.started = true
	l.stopped = false
	l.mu.Unlock()

	l.schedule(l.updatePeriod, l.updateTick)
	l.schedule(usage.Interval, l.sampleTick)
	if l.analyzer != nil {
		l.schedule(24*time.Hour, l.retrainTick)
	}
}

// Stop cancels the periodic loops.
func (l *LRM) Stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stopped = true
	l.started = false
	for _, t := range l.timers {
		t.Stop()
	}
	l.timers = nil
}

// schedule arms a self-rescheduling timer firing every period until Stop.
func (l *LRM) schedule(period time.Duration, fn func()) {
	var arm func()
	arm = func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.stopped {
			return
		}
		timer := l.clock.AfterFunc(period, func() {
			fn()
			arm()
		})
		l.timers = append(l.timers, timer)
	}
	arm()
}

func (l *LRM) updateTick() {
	l.SendUpdate()
}

// grmClient returns the current GRM stub (swapped on re-registration).
func (l *LRM) grmClient() *protocol.GRMClient {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.grm
}

// GRMRef returns the reference of the GRM the LRM currently reports to.
func (l *LRM) GRMRef() orb.ObjectRef {
	return l.grmClient().Ref()
}

// SendUpdate pushes one Information Update Protocol message now. Task
// execution is synced first so the reported free capacity and the
// completions the update carries reflect the present. Repeated failures
// — including an answer from a manager whose epoch is stale, i.e. a deposed
// primary still reachable — kick off the re-registration loop when a
// resolver is configured.
func (l *LRM) SendUpdate() {
	l.SyncTasks()
	if err := l.pushUpdate(l.grmClient()); err != nil {
		l.log.Debug("information update failed", "node", l.node.ID(), "err", err)
		l.mu.Lock()
		l.stats.UpdateFailures++
		l.consecFails++
		trigger := l.resolver != nil && l.consecFails >= reregisterAfter &&
			!l.rereg && !l.stopped
		if trigger {
			l.rereg = true
			l.reregAttempt = 0
		}
		l.mu.Unlock()
		if trigger {
			l.log.Info("GRM unreachable, entering re-registration",
				"node", l.node.ID(), "failures", reregisterAfter)
			l.armReregister()
		}
		return
	}
	l.mu.Lock()
	l.consecFails = 0
	l.stats.UpdatesSent++
	l.mu.Unlock()
}

// pushUpdate sends the node's status to client together with the outbox and
// a progress snapshot of every running task, and adopts the manager's epoch.
// If the update fails, or is answered by a manager whose epoch is stale, the
// Done events go back to the front of the outbox: the manager may have
// applied them and lost only the reply, so it must tolerate seeing them
// again. Progress is not kept — the next update snapshots it afresh.
func (l *LRM) pushUpdate(client *protocol.GRMClient) error {
	status := l.Status()
	l.mu.Lock()
	snaps := l.node.RunningSnapshots()
	events := slices.Grow(l.outbox, len(snaps))
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
	if err != nil {
		if done > 0 {
			l.mu.Lock()
			l.outbox = append(events[:done:done], l.outbox...)
			l.mu.Unlock()
		}
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

// armReregister schedules the next re-registration attempt under the capped
// exponential backoff with deterministic per-node jitter.
func (l *LRM) armReregister() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped || !l.rereg {
		return
	}
	l.reregAttempt++
	delay := l.reregBackoff.Delay(l.node.ID(), "reregister", l.reregAttempt)
	t := l.clock.AfterFunc(delay, l.reregisterTick)
	l.timers = append(l.timers, t)
}

// reregisterTick is one re-registration attempt: re-resolve the GRM
// reference, push a status update to it — with the completions no manager
// has accepted yet — and on success adopt the new GRM and reconcile running
// tasks. Failures re-arm with increased backoff.
func (l *LRM) reregisterTick() {
	l.mu.Lock()
	if l.stopped || !l.rereg {
		l.mu.Unlock()
		return
	}
	resolver := l.resolver
	l.mu.Unlock()

	ref, err := resolver()
	if err != nil {
		l.log.Debug("GRM re-resolution failed", "node", l.node.ID(), "err", err)
		l.armReregister()
		return
	}
	client := protocol.NewGRMClient(l.inv, ref)
	if err := l.pushUpdate(client); err != nil {
		l.log.Debug("re-registration update failed", "node", l.node.ID(), "err", err)
		l.armReregister()
		return
	}
	l.mu.Lock()
	l.grm = client
	l.rereg = false
	l.consecFails = 0
	l.stats.Reregistrations++
	l.stats.UpdatesSent++
	l.mu.Unlock()
	l.log.Info("re-registered with GRM", "node", l.node.ID(), "grm", ref.Endpoint.Addr)
	l.reconcile(client)
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
		if n := min(len(forecast), protocol.MaxWindows); n > 0 {
			windows = make([]protocol.AvailWindow, n)
			for i, w := range forecast[:n] {
				windows[i] = protocol.AvailWindow{Start: w.Start, End: w.End, Confidence: w.Confidence}
			}
		}
	} else if l.node.Dedicated() && !l.node.IsDown(now) {
		predicted = 24 * time.Hour
		windows = []protocol.AvailWindow{
			{Start: now, End: now.Add(ForecastHorizon), Confidence: 1},
		}
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
		Windows:       windows,
	}
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
// advanced to now).
func (l *LRM) sampleTick() {
	now := l.clock.Now()
	if l.analyzer != nil {
		l.analyzer.Record(now, l.node.OwnerActivity(now))
	}
	l.SyncTasks()
	l.departureWatch(now)
}

// departureWatch fires the graceful-departure drain when the LUPA predicts
// the owner returns within the configured lead: every running grid task is
// cancelled at its exact progress and reported as Drained (zero lost work —
// the proactive checkpoint), then a DepartureNotice tells the GRM to
// withdraw the node's offers and mark it Departing instead of waiting for
// the heartbeat-miss Suspect threshold.
func (l *LRM) departureWatch(now time.Time) {
	l.mu.Lock()
	lead := l.drainLead
	cool := l.drainCoolUntil
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
		ev := l.taskEventLocked(protocol.TaskEventDrained, task, now)
		delete(l.taskApp, snap.ID)
		l.mu.Unlock()
		if err := l.grmClient().Notify(ev); err != nil {
			l.log.Debug("drain notification failed", "task", snap.ID, "err", err)
		}
		drained++
	}
	notice := protocol.DepartureNotice{NodeID: l.node.ID(), Deadline: deadline, At: now}
	if err := l.grmClient().Departing(notice); err != nil {
		l.log.Debug("departure notice failed", "node", l.node.ID(), "err", err)
	}
	l.mu.Lock()
	l.stats.TasksDrained += drained
	l.stats.DepartureNotices++
	l.drainCoolUntil = deadline.Add(lead)
	l.mu.Unlock()
	l.log.Debug("announced graceful departure",
		"node", l.node.ID(), "deadline", deadline, "drained", drained)
}

// SyncTasks advances the node's task execution to now. Completions go to the
// outbox and reach the GRM with the next update; an eviction is notified at
// once, because the GRM re-places the task on hearing of it.
func (l *LRM) SyncTasks() {
	now := l.clock.Now()
	done, evicted := l.node.Sync(now)
	if len(done) > 0 {
		l.mu.Lock()
		for _, t := range done {
			l.outbox = append(l.outbox, l.taskEventLocked(protocol.TaskEventDone, t, now))
			l.stats.TasksCompleted++
			delete(l.taskApp, t.ID)
		}
		l.mu.Unlock()
	}
	for _, t := range evicted {
		l.notifyEvicted(t, now)
	}
}

// NotifyEvicted reports an out-of-band eviction (e.g. a node crash handled
// above the LRM) to the GRM and updates the counters.
func (l *LRM) NotifyEvicted(t *node.Task) {
	l.notifyEvicted(t, l.clock.Now())
}

func (l *LRM) notifyEvicted(t *node.Task, now time.Time) {
	l.mu.Lock()
	ev := l.taskEventLocked(protocol.TaskEventEvicted, t, now)
	l.stats.TasksEvicted++
	delete(l.taskApp, t.ID)
	l.mu.Unlock()
	if err := l.grmClient().Notify(ev); err != nil {
		l.log.Debug("eviction notification failed", "task", t.ID, "err", err)
	}
}

// taskEventLocked describes t, as it stands, in an event of the given kind.
// Caller holds l.mu.
func (l *LRM) taskEventLocked(kind protocol.TaskEventKind, t *node.Task, now time.Time) protocol.TaskEvent {
	return protocol.TaskEvent{
		Kind:     kind,
		AppID:    l.taskApp[t.ID],
		TaskID:   t.ID,
		NodeID:   l.node.ID(),
		Progress: t.Progress(),
		At:       now,
	}
}

// retrainTick retrains the LUPA daily; the next update carries its forecast.
// Start schedules it only on nodes with a LUPA. An error means there is not
// enough history yet.
func (l *LRM) retrainTick() { _ = l.analyzer.Retrain() }

// Servant exposes the LRM's reservation/execution interface.
func (l *LRM) Servant() orb.Servant {
	return orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			r, err := protocol.DecodeReserveRequest(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "reserve: %v", err)
			}
			e := orb.GetEncoder()
			l.handleReserve(r).Encode(e)
			return e, nil
		}).
		Handle(protocol.OpRelease, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			id := req.String()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "release: %v", err)
			}
			// Unknown or already-expired reservations are fine to release.
			_ = l.node.Ledger().Cancel(id)
			return &orb.Encoder{}, nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			r, err := protocol.DecodeExecuteRequest(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "execute: %v", err)
			}
			if err := l.handleExecute(r); err != nil {
				return nil, err
			}
			return &orb.Encoder{}, nil
		}).
		Handle(protocol.OpCancel, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			taskID := req.String()
			epoch := req.Int()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "cancel: %v", err)
			}
			var progress float64
			// A deposed primary must not kill tasks the new leader owns.
			if l.admitEpoch(epoch) {
				progress = l.handleCancel(taskID)
			}
			e := orb.GetEncoder()
			e.Grow(8)
			e.PutF64(progress)
			return e, nil
		})
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

// fnv hashes a string for deterministic per-node seeds.
func fnv(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

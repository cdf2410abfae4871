// Package node models one grid machine: its hardware, its owner's activity
// trace, the NCC sharing policy, and the execution of grid tasks against the
// time-varying share of the machine the policy grants.
//
// The paper's Resource Provider Nodes execute native binaries; this package
// is the documented substitution — task execution is simulated against the
// clock by integrating delivered MIPS over time, which exercises identical
// scheduling, reservation, throttling and eviction logic.
package node

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"integrade/internal/ncc"
	"integrade/internal/resource"
	"integrade/internal/usage"
)

// Task errors.
var (
	// ErrTaskExists indicates a duplicate task ID on StartTask.
	ErrTaskExists = errors.New("node: task already exists")
	// ErrNodeDown indicates the node is crashed/offline.
	ErrNodeDown = errors.New("node: node is down")
)

// lookback caps the backward scan that determines how long the owner has
// been inactive.
const lookback = 2 * time.Hour

// TaskState is the lifecycle of a grid task on a node.
type TaskState int

// Task states.
const (
	TaskRunning TaskState = iota + 1
	TaskDone
	TaskEvicted
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Task is one unit of grid work executing on the node.
type Task struct {
	ID string
	// Work is the total computation in MI (millions of instructions): a
	// task needing R seconds on a dedicated M-MIPS CPU has Work = R*M.
	Work float64
	// Alloc is the resource allocation committed for the task; Alloc.MIPS
	// caps the task's execution rate.
	Alloc resource.Vector

	progress float64
	state    TaskState
	started  time.Time
	finished time.Time
}

// Progress returns completed work in MI.
func (t *Task) Progress() float64 { return t.progress }

// SetProgress overwrites completed work; the checkpoint/restore path uses it
// when resuming a migrated task.
func (t *Task) SetProgress(mi float64) { t.progress = mi }

// Node is one machine participating in the grid.
type Node struct {
	id     string
	spec   resource.MachineSpec
	trace  *usage.Trace // nil for dedicated machines (no owner)
	policy ncc.Policy
	ledger *resource.Ledger

	// mu guards tasks, lastSync, downUntil and the accounting fields below.
	// Eviction and task completion release ledger reservations while holding
	// it, so n.mu nests outside the resource ledger's lock.
	//lint:lockorder node.Node.mu<resource.Ledger.mu
	mu        sync.Mutex
	tasks     map[string]*Task
	lastSync  time.Time
	downUntil time.Time
	// accounting
	deliveredMI     float64 // grid work actually executed
	deliveredBusyMI float64 // portion executed while the owner was active
	evictions       int
}

// New returns a node. trace may be nil for dedicated machines. The ledger
// capacity is the policy-capped share of the machine — the most the grid can
// ever hold.
func New(id string, spec resource.MachineSpec, trace *usage.Trace, policy ncc.Policy, now time.Time) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	gridCap := resource.Vector{
		MIPS:    spec.Capacity.MIPS * policy.CPUFraction,
		RAMMB:   spec.Capacity.RAMMB * policy.RAMFraction,
		DiskMB:  spec.Capacity.DiskMB,
		NetMbps: spec.Capacity.NetMbps,
	}
	return &Node{
		id:       id,
		spec:     spec,
		trace:    trace,
		policy:   policy,
		ledger:   resource.NewLedger(gridCap),
		tasks:    make(map[string]*Task),
		lastSync: now,
	}, nil
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Spec returns the machine specification.
func (n *Node) Spec() resource.MachineSpec { return n.spec }

// Ledger returns the node's reservation ledger.
func (n *Node) Ledger() *resource.Ledger { return n.ledger }

// Dedicated reports whether this is a dedicated grid machine.
func (n *Node) Dedicated() bool { return n.spec.Dedicated || n.trace == nil }

// OwnerActivity returns the owner's instantaneous resource use at t.
func (n *Node) OwnerActivity(t time.Time) usage.Activity {
	if n.Dedicated() {
		return usage.Activity{}
	}
	return n.trace.At(t)
}

// InactiveFor returns how long the owner has been continuously inactive as
// of t, capped at the lookback horizon. Dedicated nodes are always maximally
// inactive.
func (n *Node) InactiveFor(t time.Time) time.Duration {
	if n.Dedicated() {
		return lookback
	}
	if n.trace.BusyAt(t) {
		return 0
	}
	var back time.Duration
	for back < lookback {
		back += usage.Interval
		if n.trace.BusyAt(t.Add(-back)) {
			return back - usage.Interval
		}
	}
	return lookback
}

// Share returns the NCC verdict at t. Dedicated nodes are always fully
// shareable; down nodes share nothing.
func (n *Node) Share(t time.Time) ncc.Share {
	n.mu.Lock()
	down := t.Before(n.downUntil)
	n.mu.Unlock()
	if down {
		return ncc.Share{}
	}
	if n.Dedicated() {
		return ncc.Share{Allowed: true, CPUFrac: 1, RAMFrac: 1}
	}
	return n.policy.Evaluate(t, n.OwnerActivity(t), n.InactiveFor(t))
}

// GridCapacity returns the resource vector the grid may use at t: zero when
// sharing is disallowed.
func (n *Node) GridCapacity(t time.Time) resource.Vector {
	share := n.Share(t)
	if !share.Allowed {
		return resource.Vector{}
	}
	return resource.Vector{
		MIPS:    n.spec.Capacity.MIPS * share.CPUFrac,
		RAMMB:   n.spec.Capacity.RAMMB * share.RAMFrac,
		DiskMB:  n.spec.Capacity.DiskMB,
		NetMbps: n.spec.Capacity.NetMbps,
	}
}

// IsDown reports whether the node is offline at t.
func (n *Node) IsDown(t time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return t.Before(n.downUntil)
}

// Fail crashes the node at time t for the given outage duration: all running
// tasks are evicted (their partial work is lost — recovery is the
// checkpointing layer's job) and the node shares nothing until it returns.
// It returns the evicted tasks.
func (n *Node) Fail(t time.Time, outage time.Duration) []*Task {
	n.advanceTo(t) // account work up to the crash
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downUntil = t.Add(outage)
	return n.evictAllLocked()
}

// StartTask begins executing a task. The caller must have committed the
// allocation in the ledger beforehand (the LRM's execution protocol does).
func (n *Node) StartTask(t time.Time, task Task) error {
	n.advanceTo(t)
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.Before(n.downUntil) {
		return ErrNodeDown
	}
	if _, exists := n.tasks[task.ID]; exists {
		return fmt.Errorf("%w: %q", ErrTaskExists, task.ID)
	}
	task.state = TaskRunning
	task.started = t
	n.tasks[task.ID] = &task
	return nil
}

// CancelTask removes a running task (application-level abort or migration).
// It returns the task, or nil if unknown.
func (n *Node) CancelTask(t time.Time, id string) *Task {
	n.advanceTo(t)
	n.mu.Lock()
	defer n.mu.Unlock()
	task, ok := n.tasks[id]
	if !ok {
		return nil
	}
	delete(n.tasks, id)
	n.ledger.Release(task.Alloc)
	return task
}

// Sync advances task execution to time t and returns tasks that finished and
// tasks that were evicted since the previous Sync. Finished/evicted tasks
// have their ledger allocations released.
func (n *Node) Sync(t time.Time) (done, evicted []*Task) {
	return n.advanceTo(t)
}

// TaskSnapshot is a point-in-time view of a running task.
type TaskSnapshot struct {
	ID       string
	Progress float64
	Work     float64
}

// RunningSnapshots returns progress snapshots of running tasks, sorted by
// ID.
func (n *Node) RunningSnapshots() []TaskSnapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]TaskSnapshot, 0, len(n.tasks))
	for _, t := range n.tasks {
		out = append(out, TaskSnapshot{ID: t.ID, Progress: t.progress, Work: t.Work})
	}
	slices.SortFunc(out, func(a, b TaskSnapshot) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// RunningTasks returns the IDs of currently running tasks, sorted.
func (n *Node) RunningTasks() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]string, 0, len(n.tasks))
	for id := range n.tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DeliveredWork returns the total grid work executed so far, in MI.
func (n *Node) DeliveredWork() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.deliveredMI
}

// DeliveredWhileOwnerBusy returns the grid work (MI) executed while the
// owner was actively using the machine — the "partially idle node"
// exploitation SETI@home-style systems cannot do.
func (n *Node) DeliveredWhileOwnerBusy() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.deliveredBusyMI
}

// Evictions returns the number of task evictions so far.
func (n *Node) Evictions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.evictions
}

// advanceTo integrates execution from lastSync to t in usage.Interval steps.
func (n *Node) advanceTo(t time.Time) (done, evicted []*Task) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.lastSync.Before(t) {
		stepEnd := n.lastSync.Add(usage.Interval)
		if stepEnd.After(t) {
			stepEnd = t
		}
		dt := stepEnd.Sub(n.lastSync).Seconds()
		if len(n.tasks) > 0 && dt > 0 {
			share := n.shareLocked(n.lastSync)
			ownerBusy := !n.Dedicated() && n.OwnerActivity(n.lastSync).Busy()
			if share.Evict {
				evicted = append(evicted, n.evictAllLocked()...)
			} else if share.Allowed {
				done = append(done, n.executeLocked(share, dt, stepEnd, ownerBusy)...)
			}
			// share not allowed and not evict: tasks stay suspended.
		}
		n.lastSync = stepEnd
	}
	return done, evicted
}

// shareLocked evaluates the NCC share at t without taking n.mu again.
func (n *Node) shareLocked(t time.Time) ncc.Share {
	if t.Before(n.downUntil) {
		return ncc.Share{}
	}
	if n.Dedicated() {
		return ncc.Share{Allowed: true, CPUFrac: 1, RAMFrac: 1}
	}
	// OwnerActivity and InactiveFor only read the immutable trace.
	return n.policy.Evaluate(t, n.OwnerActivity(t), n.InactiveFor(t))
}

// executeLocked advances all running tasks by dt seconds under share,
// returning those that completed.
func (n *Node) executeLocked(share ncc.Share, dt float64, now time.Time, ownerBusy bool) []*Task {
	gridMIPS := n.spec.Capacity.MIPS * share.CPUFrac
	// Distribute grid MIPS across tasks proportionally to allocations,
	// capped by each task's allocation.
	var totalAlloc float64
	for _, task := range n.tasks {
		totalAlloc += task.Alloc.MIPS
	}
	if totalAlloc == 0 {
		return nil
	}
	scale := 1.0
	if totalAlloc > gridMIPS {
		scale = gridMIPS / totalAlloc
	}
	var finished []*Task
	for id, task := range n.tasks {
		rate := task.Alloc.MIPS * scale
		task.progress += rate * dt
		n.deliveredMI += rate * dt
		if ownerBusy {
			n.deliveredBusyMI += rate * dt
		}
		if task.progress >= task.Work {
			task.state = TaskDone
			task.finished = now
			delete(n.tasks, id)
			n.ledger.Release(task.Alloc)
			finished = append(finished, task)
		}
	}
	slices.SortFunc(finished, byID)
	return finished
}

func (n *Node) evictAllLocked() []*Task {
	var out []*Task
	for id, task := range n.tasks {
		task.state = TaskEvicted
		delete(n.tasks, id)
		n.ledger.Release(task.Alloc)
		n.evictions++
		out = append(out, task)
	}
	slices.SortFunc(out, byID)
	return out
}

// byID orders tasks by ID.
func byID(a, b *Task) int { return cmp.Compare(a.ID, b.ID) }

// OwnerSlowdown estimates the owner-perceived slowdown factor at t: the
// ratio between the CPU the owner demands and what it actually receives once
// grid load is placed. Under QoS-preserving policies this is 1.0; under the
// greedy baseline it exceeds 1 whenever owner demand plus grid load
// oversubscribes the CPU. This is the metric for the paper's "users shall
// not perceive any drop in quality of service" requirement.
func (n *Node) OwnerSlowdown(t time.Time) float64 {
	owner := n.OwnerActivity(t)
	if owner.CPU <= 0 {
		return 1
	}
	share := n.Share(t)
	if !share.Allowed {
		return 1
	}
	n.mu.Lock()
	var gridDemand float64
	for _, task := range n.tasks {
		gridDemand += task.Alloc.MIPS
	}
	n.mu.Unlock()
	gridFrac := min(share.CPUFrac, gridDemand/n.spec.Capacity.MIPS)
	switch n.policy.Mode {
	case ncc.ModeGreedy:
		// Grid does not yield: owner receives what is left.
		left := 1 - gridFrac
		if left <= 0 {
			return 10 // saturated; cap the reported slowdown
		}
		if owner.CPU <= left {
			return 1
		}
		return min(owner.CPU/left, 10)
	default:
		// Yielding modes never take what the owner needs.
		return 1
	}
}

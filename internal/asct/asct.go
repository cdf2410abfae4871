// Package asct implements the Application Submission and Control Tool: the
// user-facing component for describing applications (execution
// prerequisites, resource requirements), submitting them to a GRM, and
// monitoring their progress.
//
// Per the paper: "The user can specify execution prerequisites, such as
// hardware and software platforms, resource requirements such as minimum
// memory requirements, and preferences, like rather executing on a faster
// CPU than on a slower one. The user can also use the tool to monitor
// application progress."
//
// The paper's preferences are not reproduced: the cluster's policy orders
// candidate nodes in one ranking that a whole admission batch shares, and a
// per-application order would fork that ranking.
package asct

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// ErrTimeout is returned by Handle.waitDone when the deadline passes first.
var ErrTimeout = errors.New("asct: wait timed out")

// Builder assembles an ApplicationSpec fluently.
type Builder struct {
	spec protocol.ApplicationSpec
}

// NewApplication starts a builder for an application with the given name.
// The default shape is a sequential application; call Parametric or BSP to
// change it.
func NewApplication(name string) *Builder {
	return &Builder{spec: protocol.ApplicationSpec{
		Name:     name,
		Kind:     protocol.AppSequential,
		NumTasks: 1,
	}}
}

// Sequential declares a single-process application with the given total
// work in MI.
func (b *Builder) Sequential(workMI float64) *Builder {
	b.spec.Kind = protocol.AppSequential
	b.spec.NumTasks = 1
	b.spec.WorkPerTask = workMI
	return b
}

// Parametric declares a bag of n independent tasks of workMI each.
func (b *Builder) Parametric(n int, workMI float64) *Builder {
	b.spec.Kind = protocol.AppParametric
	b.spec.NumTasks = n
	b.spec.WorkPerTask = workMI
	return b
}

// BSP declares an n-process bulk-synchronous application, workMI per
// process.
func (b *Builder) BSP(n int, workMI float64) *Builder {
	b.spec.Kind = protocol.AppBSP
	b.spec.NumTasks = n
	b.spec.WorkPerTask = workMI
	return b
}

// OnPlatform adds a hardware/software platform prerequisite.
func (b *Builder) OnPlatform(p resource.Platform) *Builder {
	b.spec.Requirements.Platform = &p
	return b
}

// RequireMinimum sets hard per-node minimum machine resources (the paper's
// "at least 16 MB of RAM and a CPU of at least 500 MIPS").
func (b *Builder) RequireMinimum(minimum resource.Vector) *Builder {
	b.spec.Requirements.Min = minimum
	return b
}

// Allocate sets the per-process resource allocation to reserve (defaults to
// the minimum requirements).
func (b *Builder) Allocate(alloc resource.Vector) *Builder {
	b.spec.Alloc = alloc
	return b
}

// Constraint adds a raw trader constraint expression ANDed with the
// generated requirements.
func (b *Builder) Constraint(expr string) *Builder {
	b.spec.Constraint = expr
	return b
}

// Topology requests a virtual topology. Group sizes must sum to the process
// count.
func (b *Builder) Topology(interMbps float64, groups ...protocol.TopologyGroup) *Builder {
	b.spec.Topology = &protocol.TopologyRequest{Groups: groups, InterMbps: interMbps}
	return b
}

// Checkpoint enables progress checkpointing every workMI of per-task
// progress and automatic restart of evicted tasks.
func (b *Builder) Checkpoint(workMI float64) *Builder {
	b.spec.CheckpointEveryWork = workMI
	b.spec.RestartEvicted = true
	return b
}

// RestartEvicted re-places evicted tasks (from scratch unless Checkpoint is
// also set).
func (b *Builder) RestartEvicted() *Builder {
	b.spec.RestartEvicted = true
	return b
}

// Spec finalizes and validates the application spec.
func (b *Builder) Spec() (protocol.ApplicationSpec, error) {
	if err := b.spec.Validate(); err != nil {
		return protocol.ApplicationSpec{}, err
	}
	return b.spec, nil
}

// Tool is a connected ASCT: it submits to one GRM and polls status.
type Tool struct {
	inv    orb.Invoker
	client *protocol.GRMClient
	clock  sim.Clock
}

// New returns a Tool submitting to the GRM at grmRef.
func New(inv orb.Invoker, grmRef orb.ObjectRef, clock sim.Clock) *Tool {
	return &Tool{inv: inv, client: protocol.NewGRMClient(inv, grmRef), clock: clock}
}

// write makes a write call through the tool's GRM and, when that GRM refuses
// it with a forward (a replica that does not lead its set), once more through
// the GRM the forward names.
func (t *Tool) write(call func(*protocol.GRMClient) error) error {
	err := call(t.client)
	if err != nil {
		if ref, ok := orb.Forwarded(err); ok {
			err = call(protocol.NewGRMClient(t.inv, ref))
		}
	}
	return err
}

// Submit validates and submits the built application, returning a handle
// for monitoring.
func (t *Tool) Submit(b *Builder) (*Handle, error) {
	spec, err := b.Spec()
	if err != nil {
		return nil, err
	}
	var id string
	err = t.write(func(c *protocol.GRMClient) (err error) {
		id, err = c.Submit(spec)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("asct: submit %q: %w", spec.Name, err)
	}
	return &Handle{tool: t, id: id, name: spec.Name}, nil
}

// ListApps enumerates the applications known to the connected GRM.
func (t *Tool) ListApps() ([]string, error) {
	return t.client.ListApps()
}

// Handle returns a monitoring handle for an already-submitted application.
func (t *Tool) Handle(appID string) *Handle {
	return &Handle{tool: t, id: appID}
}

// Handle tracks one submitted application.
type Handle struct {
	tool *Tool
	id   string
	name string // as submitted, if through this handle
	// mu guards tasks: the handle's own copy of the latest poll's tasks,
	// whose IDs and nodes the next poll's decoding shares, as it does id and
	// name. A poll takes the slice and gives it back refilled, so a
	// concurrent one decodes without it.
	mu    sync.Mutex
	tasks []protocol.TaskStatus
}

// ID returns the GRM-assigned application ID.
func (h *Handle) ID() string { return h.id }

// Status fetches the current application status. The status is the caller's
// own; its strings are the previous poll's where they are unchanged.
func (h *Handle) Status() (protocol.AppStatus, error) {
	h.mu.Lock()
	like := protocol.AppStatus{AppID: h.id, Name: h.name, Tasks: h.tasks}
	h.tasks = nil
	h.mu.Unlock()
	st, err := h.tool.client.AppStatus(h.id, &like)
	if err == nil {
		like.Tasks = append(like.Tasks[:0], st.Tasks...)
	}
	h.mu.Lock()
	h.tasks = like.Tasks
	h.mu.Unlock()
	if err != nil {
		return protocol.AppStatus{}, err
	}
	return st, nil
}

// Cancel aborts the application: running tasks stop on their nodes, queued
// tasks are dropped.
func (h *Handle) Cancel() error {
	return h.tool.write(func(c *protocol.GRMClient) error { return c.CancelApp(h.id) })
}

// waitDone polls until the application completes, the timeout elapses, or a
// status query fails. Poll cadence is poll (default 30s when zero). With a
// virtual clock, time must be advanced by another goroutine or prior
// scheduling.
func (h *Handle) waitDone(timeout, poll time.Duration) (protocol.AppStatus, error) {
	if poll <= 0 {
		poll = 30 * time.Second
	}
	deadline := h.tool.clock.Now().Add(timeout)
	for {
		st, err := h.Status()
		if err != nil {
			return protocol.AppStatus{}, err
		}
		if st.Done() {
			return st, nil
		}
		if !h.tool.clock.Now().Add(poll).Before(deadline) {
			return st, fmt.Errorf("%w after %v (app %s)", ErrTimeout, timeout, h.id)
		}
		h.tool.clock.Sleep(poll)
	}
}

// RenderStatus formats an application status as a small text report for the
// CLI and examples.
func RenderStatus(st protocol.AppStatus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "application %s (%q, %s): %d task(s), %d negotiation round(s)\n",
		st.AppID, st.Name, st.Kind, len(st.Tasks), st.Negotiations)
	done := 0
	for _, task := range st.Tasks {
		pct := 0.0
		if task.Work > 0 {
			pct = 100 * task.Progress / task.Work
		}
		fmt.Fprintf(&sb, "  %-20s %-10s node=%-10s %6.1f%%", task.TaskID, task.State, orDash(task.NodeID), pct)
		if task.Restarts > 0 {
			fmt.Fprintf(&sb, " restarts=%d", task.Restarts)
		}
		sb.WriteByte('\n')
		if task.State == protocol.TaskDone {
			done++
		}
	}
	fmt.Fprintf(&sb, "  %d/%d done", done, len(st.Tasks))
	if st.Done() && !st.Finished.IsZero() {
		fmt.Fprintf(&sb, " (finished %s after submission)", st.Finished.Sub(st.Submitted))
	}
	sb.WriteByte('\n')
	return sb.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

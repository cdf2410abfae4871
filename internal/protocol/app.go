package protocol

import (
	"fmt"
	"time"

	"integrade/internal/orb"
	"integrade/internal/resource"
)

// AppKind classifies applications by their parallelism model, covering the
// paper's "broad range of parallel applications".
type AppKind int

// Application kinds.
const (
	// AppSequential is a single-process application.
	AppSequential AppKind = iota + 1
	// AppParametric is a bag of independent tasks (parameter sweep) — the
	// BOINC-style workload with "negligible data dependencies".
	AppParametric
	// AppBSP is a Bulk-Synchronous Parallel application whose processes
	// synchronize at superstep barriers.
	AppBSP
)

// String implements fmt.Stringer.
func (k AppKind) String() string {
	switch k {
	case AppSequential:
		return "sequential"
	case AppParametric:
		return "parametric"
	case AppBSP:
		return "bsp"
	default:
		return fmt.Sprintf("AppKind(%d)", int(k))
	}
}

// TopologyGroup is one node group in a virtual topology request.
type TopologyGroup struct {
	Nodes     int     // number of processes in this group
	IntraMbps float64 // minimum bandwidth between group members
}

// TopologyRequest expresses the paper's virtual-topology example: "two
// groups of 50 nodes, each group connected internally by a 100 Mbps network
// and the two groups connected by a 10 Mbps network".
type TopologyRequest struct {
	Groups    []TopologyGroup
	InterMbps float64 // minimum bandwidth between groups
}

// TotalNodes returns the node count across all groups.
func (t TopologyRequest) TotalNodes() int {
	n := 0
	for _, g := range t.Groups {
		n += g.Nodes
	}
	return n
}

// ApplicationSpec is a submission record: what to run and under which
// prerequisites (platform), requirements (minimums) and preferences.
type ApplicationSpec struct {
	Name string
	Kind AppKind
	// NumTasks is the process count (1 for sequential).
	NumTasks int
	// WorkPerTask is each process's computation in MI.
	WorkPerTask float64
	// Requirements are hard per-node constraints.
	Requirements resource.Requirements
	// Constraint optionally adds a raw trader constraint expression.
	Constraint string
	// Preferences order acceptable nodes.
	Preferences resource.Preferences
	// Alloc is the per-process resource allocation to reserve. Zero MIPS
	// defaults to Requirements.Min.
	Alloc resource.Vector
	// Topology optionally requests a virtual topology (BSP apps).
	Topology *TopologyRequest
	// CheckpointEveryWork checkpoints each task every given MI of progress
	// (0 disables checkpointing).
	CheckpointEveryWork float64
	// RestartEvicted re-places evicted tasks automatically (from their last
	// checkpoint when checkpointing is on).
	RestartEvicted bool
}

// Validate reports a descriptive error for malformed specs.
func (s ApplicationSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("protocol: application without a name")
	}
	switch s.Kind {
	case AppSequential:
		if s.NumTasks != 1 {
			return fmt.Errorf("protocol: sequential app %q with %d tasks", s.Name, s.NumTasks)
		}
	case AppParametric, AppBSP:
		if s.NumTasks < 1 {
			return fmt.Errorf("protocol: app %q with %d tasks", s.Name, s.NumTasks)
		}
	default:
		return fmt.Errorf("protocol: app %q with unknown kind %d", s.Name, s.Kind)
	}
	if s.WorkPerTask <= 0 {
		return fmt.Errorf("protocol: app %q with non-positive work", s.Name)
	}
	if s.Topology != nil {
		if s.Topology.TotalNodes() != s.NumTasks {
			return fmt.Errorf("protocol: app %q topology covers %d nodes, have %d tasks",
				s.Name, s.Topology.TotalNodes(), s.NumTasks)
		}
		for _, g := range s.Topology.Groups {
			if g.Nodes <= 0 {
				return fmt.Errorf("protocol: app %q topology group with %d nodes", s.Name, g.Nodes)
			}
		}
	}
	if s.CheckpointEveryWork < 0 {
		return fmt.Errorf("protocol: app %q negative checkpoint interval", s.Name)
	}
	return nil
}

// EffectiveAlloc returns the per-process allocation, defaulting to the
// minimum requirements.
func (s ApplicationSpec) EffectiveAlloc() resource.Vector {
	if s.Alloc.IsZero() {
		return s.Requirements.Min
	}
	return s.Alloc
}

// topologyGroupLen is the encoded size of a TopologyGroup.
const topologyGroupLen = 8 + 8

// encodedLen is the exact encoded size of the spec: in Encode's order, the
// name, kind, task count, work, platform flag, minimum, constraint, two
// preference flags and a weight, allocation, topology flag, checkpoint
// interval and restart flag, then the platform and topology if present.
func (s *ApplicationSpec) encodedLen() int {
	n := strLen(s.Name) + 1 + 8 + 8 + 1 + vectorLen + strLen(s.Constraint) + 1 + 1 + 8 + vectorLen + 1 + 8 + 1
	if p := s.Requirements.Platform; p != nil {
		n += strLen(p.Arch) + strLen(p.OS)
	}
	if s.Topology != nil {
		n += 4 + len(s.Topology.Groups)*topologyGroupLen + 8
	}
	return n
}

// Encode writes the spec.
func (s ApplicationSpec) Encode(e *orb.Encoder) {
	e.Grow(s.encodedLen())
	e.PutString(s.Name)
	e.PutU8(uint8(s.Kind))
	e.PutInt(s.NumTasks)
	e.PutF64(s.WorkPerTask)
	if s.Requirements.Platform != nil {
		e.PutBool(true)
		e.PutString(s.Requirements.Platform.Arch)
		e.PutString(s.Requirements.Platform.OS)
	} else {
		e.PutBool(false)
	}
	EncodeVector(e, s.Requirements.Min)
	e.PutString(s.Constraint)
	e.PutBool(s.Preferences.FasterCPU)
	e.PutBool(s.Preferences.MoreRAM)
	e.PutF64(s.Preferences.StayIdleWeight)
	EncodeVector(e, s.Alloc)
	if s.Topology != nil {
		e.PutBool(true)
		e.PutU32(uint32(len(s.Topology.Groups)))
		for _, g := range s.Topology.Groups {
			e.PutInt(g.Nodes)
			e.PutF64(g.IntraMbps)
		}
		e.PutF64(s.Topology.InterMbps)
	} else {
		e.PutBool(false)
	}
	e.PutF64(s.CheckpointEveryWork)
	e.PutBool(s.RestartEvicted)
}

// DecodeApplicationSpec reads an ApplicationSpec.
func DecodeApplicationSpec(d *orb.Decoder) (ApplicationSpec, error) {
	s := ApplicationSpec{
		Name:        d.String(),
		Kind:        AppKind(d.U8()),
		NumTasks:    d.Int(),
		WorkPerTask: d.F64(),
	}
	if d.Bool() {
		p := resource.Platform{Arch: d.String(), OS: d.String()}
		s.Requirements.Platform = &p
	}
	s.Requirements.Min = DecodeVector(d)
	s.Constraint = d.String()
	s.Preferences.FasterCPU = d.Bool()
	s.Preferences.MoreRAM = d.Bool()
	s.Preferences.StayIdleWeight = d.F64()
	s.Alloc = DecodeVector(d)
	if d.Bool() {
		n := d.Count(topologyGroupLen)
		if err := d.Err(); err != nil {
			return ApplicationSpec{}, err
		}
		topo := &TopologyRequest{Groups: make([]TopologyGroup, n)}
		for i := range topo.Groups {
			topo.Groups[i].Nodes = d.Int()
			topo.Groups[i].IntraMbps = d.F64()
		}
		topo.InterMbps = d.F64()
		s.Topology = topo
	}
	s.CheckpointEveryWork = d.F64()
	s.RestartEvicted = d.Bool()
	if err := d.Err(); err != nil {
		return ApplicationSpec{}, err
	}
	return s, nil
}

// TaskState is a scheduler-side task lifecycle state.
type TaskState int

// Task states as seen by the GRM and ASCT.
const (
	TaskPending TaskState = iota + 1
	TaskRunning
	TaskDone
	TaskEvicted
	TaskFailed
	TaskCancelled
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskEvicted:
		return "evicted"
	case TaskFailed:
		return "failed"
	case TaskCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// TaskStatus is one task's status inside an application.
type TaskStatus struct {
	TaskID   string
	NodeID   string
	State    TaskState
	Progress float64 // MI
	Work     float64 // MI
	Restarts int
}

// AppStatus is the GRM's view of an application, returned to the ASCT.
type AppStatus struct {
	AppID        string
	Name         string
	Kind         AppKind
	Submitted    time.Time
	Finished     time.Time // zero until done
	Tasks        []TaskStatus
	Negotiations int // reservation-protocol rounds spent placing the app
}

// Done reports whether every task completed.
func (a AppStatus) Done() bool {
	if len(a.Tasks) == 0 {
		return false
	}
	for _, t := range a.Tasks {
		if t.State != TaskDone {
			return false
		}
	}
	return true
}

// taskStatusMin is the encoded size of a TaskStatus whose strings are empty.
const taskStatusMin = 4 + 4 + 1 + 8 + 8 + 8

// Encode writes the status.
func (a AppStatus) Encode(e *orb.Encoder) {
	a.EncodeTasks(e, len(a.Tasks), func(i int) TaskStatus { return a.Tasks[i] })
}

// EncodeTasks writes the status with n tasks, the i-th task(i), in place of
// a.Tasks: a server that holds its tasks in records of its own writes the
// reply from them without building the slice. Encode is EncodeTasks over
// a.Tasks, so the two write the same bytes for the same tasks.
func (a *AppStatus) EncodeTasks(e *orb.Encoder, n int, task func(i int) TaskStatus) {
	size := strLen(a.AppID) + strLen(a.Name) + 1 + 2*timeLen + 8 + 4 + n*taskStatusMin
	for i := range n {
		t := task(i)
		size += len(t.TaskID) + len(t.NodeID)
	}
	e.Grow(size)
	e.PutString(a.AppID)
	e.PutString(a.Name)
	e.PutU8(uint8(a.Kind))
	e.PutTime(a.Submitted)
	e.PutTime(a.Finished)
	e.PutInt(a.Negotiations)
	e.PutU32(uint32(n))
	for i := range n {
		t := task(i)
		e.PutString(t.TaskID)
		e.PutString(t.NodeID)
		e.PutU8(uint8(t.State))
		e.PutF64(t.Progress)
		e.PutF64(t.Work)
		e.PutInt(t.Restarts)
	}
}

// DecodeAppStatus reads an AppStatus.
func DecodeAppStatus(d *orb.Decoder) (AppStatus, error) {
	return decodeAppStatus(d, nil)
}

// decodeAppStatus reads an AppStatus whose strings — the application's ID and
// name, each task's ID and node — are like's wherever the wire bytes equal
// them, the i-th task's those of like's i-th, and copies where they do not.
// like nil means no earlier status.
func decodeAppStatus(d *orb.Decoder, like *AppStatus) (AppStatus, error) {
	if like == nil {
		like = &AppStatus{}
	}
	a := AppStatus{
		AppID:     knownString(d, like.AppID),
		Name:      knownString(d, like.Name),
		Kind:      AppKind(d.U8()),
		Submitted: d.Time(),
		Finished:  d.Time(),
	}
	a.Negotiations = d.Int()
	n := d.Count(taskStatusMin)
	if err := d.Err(); err != nil {
		return AppStatus{}, err
	}
	a.Tasks = make([]TaskStatus, n)
	for i := range a.Tasks {
		var was TaskStatus
		if i < len(like.Tasks) {
			was = like.Tasks[i]
		}
		a.Tasks[i] = TaskStatus{
			TaskID:   knownString(d, was.TaskID),
			NodeID:   knownString(d, was.NodeID),
			State:    TaskState(d.U8()),
			Progress: d.F64(),
			Work:     d.F64(),
			Restarts: d.Int(),
		}
	}
	if err := d.Err(); err != nil {
		return AppStatus{}, err
	}
	return a, nil
}

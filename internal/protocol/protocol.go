// Package protocol defines the wire-level messages of InteGrade's
// intra-cluster protocols, shared by the LRM and GRM:
//
//   - the Information Update Protocol (LRM → GRM periodic NodeStatus, with
//     the task events observed since the last one: completions, evictions,
//     drains and progress);
//   - the Resource Reservation and Execution Protocol (GRM → LRM
//     reserve/execute/cancel);
//   - application submission records (ASCT → GRM).
//
// These correspond to the CORBA IDL interfaces of the original system.
package protocol

import (
	"fmt"
	"slices"
	"time"

	"integrade/internal/orb"
	"integrade/internal/resource"
)

// Object adapter keys for the two managers.
const (
	GRMKey = "grm"
	LRMKey = "lrm"
)

// Operation names.
const (
	// GRM operations.
	OpUpdate    = "update"    // LRM pushes NodeStatus and its task events
	OpSubmit    = "submit"    // ASCT submits an application
	OpAppStatus = "appStatus" // ASCT polls application status
	OpCancelApp = "cancelApp" // ASCT aborts an application
	OpListApps  = "listApps"  // ASCT enumerates applications
	OpReconcile = "reconcile" // LRM syncs its running tasks after re-registering

	// LRM operations.
	OpReserve = "reserve"
	OpRelease = "release"
	OpExecute = "execute"
	OpCancel  = "cancel"
	OpAdopt   = "adopt" // a new leader asks the node to register with it
)

// NodeStatus is one Information Update Protocol message: the LRM's
// description of its node at an instant.
type NodeStatus struct {
	NodeID   string
	LRMRef   orb.ObjectRef
	Platform resource.Platform
	LANID    string
	// Capacity is the machine's total hardware capacity.
	Capacity resource.Vector
	// GridFree is what the grid could commit right now: the NCC share minus
	// reservations and running tasks. Zero when sharing is disallowed.
	GridFree resource.Vector
	// Dedicated marks machines reserved for the grid.
	Dedicated bool
	// OwnerBusy reports whether the owner is actively using the machine.
	OwnerBusy bool
	// DepartUntil, when set, announces a predicted owner-driven departure:
	// the node's LUPA forecast says the owner returns then, so the node has
	// drained its grid tasks (each reported as TaskEventDrained) and the GRM
	// withdraws its offer, without declaring it dead, until an update past
	// the deadline. The LRM sets it on every update while it lies ahead.
	DepartUntil time.Time
	// Prompted marks an update the LRM sent at once, outside its update
	// cadence, to report an eviction or a drain: the GRM applies it like any
	// other but does not count it as a heartbeat.
	Prompted bool
	// PredictedIdle is the node-local LUPA forecast of the remaining idle
	// span (zero when untrained or not idle).
	PredictedIdle time.Duration
	// Timestamp is the LRM-side send time, used for staleness accounting.
	Timestamp time.Time
	// Windows is the node-local LUPA availability forecast: intervals the
	// owner is predicted to leave the machine idle, with a confidence score
	// in [0,1]. Empty when the analyzer is untrained; at most MaxWindows.
	// Window-aware GRM placement fits task runtimes inside them.
	Windows []AvailWindow
}

// AvailWindow is the wire form of one forecast availability window.
type AvailWindow struct {
	Start      time.Time
	End        time.Time
	Confidence float64
}

// windowLen is the encoded size of an AvailWindow.
const windowLen = 2*timeLen + 8

// The bits of a status's flags byte. A departing status carries its deadline
// after the byte; the others carry none.
const (
	statusDedicated = 1 << iota
	statusOwnerBusy
	statusDeparting
	statusPrompted
	statusKnown = statusDedicated | statusOwnerBusy | statusDeparting | statusPrompted
)

// flags packs the status's booleans into its flags byte.
func (s *NodeStatus) flags() uint8 {
	var f uint8
	if s.Dedicated {
		f |= statusDedicated
	}
	if s.OwnerBusy {
		f |= statusOwnerBusy
	}
	if !s.DepartUntil.IsZero() {
		f |= statusDeparting
	}
	if s.Prompted {
		f |= statusPrompted
	}
	return f
}

// encodedLen is the exact encoded size of the status.
func (s *NodeStatus) encodedLen() int {
	n := strLen(s.NodeID) + refLen(s.LRMRef) + strLen(s.Platform.Arch) + strLen(s.Platform.OS) +
		strLen(s.LANID) + 2*vectorLen + 1 + 8 + timeLen + 4 + len(s.Windows)*windowLen
	if !s.DepartUntil.IsZero() {
		n += timeLen
	}
	return n
}

// Encode writes the status.
func (s NodeStatus) Encode(e *orb.Encoder) {
	e.Grow(s.encodedLen())
	e.PutString(s.NodeID)
	EncodeRef(e, s.LRMRef)
	e.PutString(s.Platform.Arch)
	e.PutString(s.Platform.OS)
	e.PutString(s.LANID)
	EncodeVector(e, s.Capacity)
	EncodeVector(e, s.GridFree)
	flags := s.flags()
	e.PutU8(flags)
	if flags&statusDeparting != 0 {
		e.PutTime(s.DepartUntil)
	}
	e.PutDuration(s.PredictedIdle)
	e.PutTime(s.Timestamp)
	e.PutU32(uint32(len(s.Windows)))
	for _, w := range s.Windows {
		e.PutTime(w.Start)
		e.PutTime(w.End)
		e.PutF64(w.Confidence)
	}
}

// MaxWindows bounds the availability windows one NodeStatus carries. The LRM
// publishes at most this many, so a fragmented forecast cannot bloat the
// Information Update, and a decoder refuses a status with more: the receiver
// decodes them into an array of this size it holds on its stack.
const MaxWindows = 8

// DecodeNodeStatus reads a NodeStatus, its windows in a slice of their own.
func DecodeNodeStatus(d *orb.Decoder) (NodeStatus, error) {
	var buf [MaxWindows]AvailWindow
	s, windows, err := decodeNodeStatus(d, nil, &buf)
	if len(windows) > 0 {
		s.Windows = slices.Clone(windows)
	}
	return s, err
}

// decodeNodeStatus reads a NodeStatus whose identity strings — node ID, LRM
// address and key, arch, OS and LAN — are like's wherever the wire bytes
// equal them, and copies where they do not. like nil means no record. The
// windows go into buf and come back beside the status, whose Windows is nil,
// so a buf on the caller's stack stays there.
func decodeNodeStatus(d *orb.Decoder, like *NodeStatus, buf *[MaxWindows]AvailWindow) (NodeStatus, []AvailWindow, error) {
	if like == nil {
		like = &NodeStatus{}
	}
	s := NodeStatus{
		NodeID: knownString(d, like.NodeID),
		LRMRef: decodeRef(d, like.LRMRef),
	}
	s.Platform.Arch = knownString(d, like.Platform.Arch)
	s.Platform.OS = knownString(d, like.Platform.OS)
	s.LANID = knownString(d, like.LANID)
	s.Capacity = DecodeVector(d)
	s.GridFree = DecodeVector(d)
	flags := d.U8()
	if flags&^statusKnown != 0 {
		return NodeStatus{}, nil, fmt.Errorf("protocol: status with unknown flags %#x", flags&^statusKnown)
	}
	s.Dedicated = flags&statusDedicated != 0
	s.OwnerBusy = flags&statusOwnerBusy != 0
	s.Prompted = flags&statusPrompted != 0
	if flags&statusDeparting != 0 {
		s.DepartUntil = d.Time()
	}
	s.PredictedIdle = d.Duration()
	s.Timestamp = d.Time()
	n := d.Count(windowLen)
	if err := d.Err(); err != nil {
		return NodeStatus{}, nil, err
	}
	if n > MaxWindows {
		return NodeStatus{}, nil, fmt.Errorf("protocol: status with %d availability windows", n)
	}
	windows := buf[:n]
	for i := range windows {
		windows[i] = AvailWindow{
			Start:      d.Time(),
			End:        d.Time(),
			Confidence: d.F64(),
		}
	}
	if err := d.Err(); err != nil {
		return NodeStatus{}, nil, err
	}
	return s, windows, nil
}

// MaxHolds bounds how many holds one Reserve may ask for and how many tasks
// one Execute may start. A decoder refuses a count of zero or past the bound,
// so a peer can neither make an LRM loop on an empty request nor fill its
// ledger with a million zero-sized holds in one call.
const MaxHolds = 1024

// ReserveRequest asks an LRM for Count holds of Amount each (negotiation
// phase): everything the holder still wants on this node, in one call.
type ReserveRequest struct {
	Holder string // application/request identifier
	Amount resource.Vector
	TTL    time.Duration // how long the holds may stand before execution
	// Epoch is the issuing manager's fencing epoch: its election term, or 1
	// for a manager outside a replica set. An LRM refuses requests whose
	// epoch is older than the newest it has seen, so a deposed primary cannot
	// place work.
	Epoch int
	// Count is how many holds are wanted, 1 to MaxHolds. The LRM grants as
	// many as fit; fewer than Count means the node is full.
	Count int
}

// Encode writes the request.
func (r ReserveRequest) Encode(e *orb.Encoder) {
	e.Grow(strLen(r.Holder) + vectorLen + 8 + 8 + 4)
	e.PutString(r.Holder)
	EncodeVector(e, r.Amount)
	e.PutDuration(r.TTL)
	e.PutInt(r.Epoch)
	e.PutU32(uint32(r.Count))
}

// DecodeReserveRequest reads a ReserveRequest.
func DecodeReserveRequest(d *orb.Decoder) (ReserveRequest, error) {
	r := ReserveRequest{
		Holder: d.String(),
		Amount: DecodeVector(d),
		TTL:    d.Duration(),
	}
	r.Epoch = d.Int()
	n := d.U32()
	if err := d.Err(); err != nil {
		return ReserveRequest{}, err
	}
	if n < 1 || n > MaxHolds {
		return ReserveRequest{}, fmt.Errorf("protocol: reserve for %d holds", n)
	}
	r.Count = int(n)
	return r, nil
}

// ReserveReply is the LRM's answer: the holds it granted, or a refusal with a
// reason. Fewer holds than asked, or none, is the signal that sends the GRM to
// the next candidate.
type ReserveReply struct {
	// Granted reports whether at least one hold was granted; ReservationID is
	// that first hold.
	Granted       bool
	ReservationID string
	Reason        string
	// More holds the IDs granted beyond the first, in grant order.
	More []string
}

// IDs returns every reservation the reply names, the first hold first.
func (r ReserveReply) IDs() []string {
	if r.ReservationID == "" {
		return r.More
	}
	return append([]string{r.ReservationID}, r.More...)
}

// Encode writes the reply.
func (r ReserveReply) Encode(e *orb.Encoder) {
	n := 1 + strLen(r.ReservationID) + strLen(r.Reason) + 4
	for _, id := range r.More {
		n += strLen(id)
	}
	e.Grow(n)
	e.PutBool(r.Granted)
	e.PutString(r.ReservationID)
	e.PutString(r.Reason)
	e.PutU32(uint32(len(r.More)))
	for _, id := range r.More {
		e.PutString(id)
	}
}

// DecodeReserveReply reads a ReserveReply.
func DecodeReserveReply(d *orb.Decoder) (ReserveReply, error) {
	r := ReserveReply{
		Granted:       d.Bool(),
		ReservationID: d.String(),
		Reason:        d.String(),
	}
	n := d.Count(4)
	if err := d.Err(); err != nil {
		return ReserveReply{}, err
	}
	if n >= MaxHolds {
		return ReserveReply{}, fmt.Errorf("protocol: reserve reply with %d more holds", n)
	}
	if n > 0 {
		r.More = make([]string, 0, n)
	}
	for i := 0; i < n; i++ {
		r.More = append(r.More, d.String())
	}
	if err := d.Err(); err != nil {
		return ReserveReply{}, err
	}
	return r, nil
}

// TaskStart is one task of an ExecuteRequest: the hold it consumes and what
// it runs.
type TaskStart struct {
	ReservationID string
	TaskID        string
	Work          float64 // MI
	// InitialProgress restores a checkpointed task after migration.
	InitialProgress float64
}

// ExecuteRequest binds granted reservations to concrete tasks of one
// application, all on one node: 1 to MaxHolds tasks, each with Alloc, which
// the LRM starts all together or not at all.
type ExecuteRequest struct {
	AppID string
	Alloc resource.Vector
	// Epoch is the issuing manager's fencing epoch; see ReserveRequest.
	Epoch int
	Tasks []TaskStart
}

// Encode writes the request.
func (r ExecuteRequest) Encode(e *orb.Encoder) {
	n := strLen(r.AppID) + vectorLen + 8 + 4
	for _, t := range r.Tasks {
		n += strLen(t.ReservationID) + strLen(t.TaskID) + 8 + 8
	}
	e.Grow(n)
	e.PutString(r.AppID)
	EncodeVector(e, r.Alloc)
	e.PutInt(r.Epoch)
	e.PutU32(uint32(len(r.Tasks)))
	for _, t := range r.Tasks {
		e.PutString(t.ReservationID)
		e.PutString(t.TaskID)
		e.PutF64(t.Work)
		e.PutF64(t.InitialProgress)
	}
}

// DecodeExecuteRequest reads an ExecuteRequest.
func DecodeExecuteRequest(d *orb.Decoder) (ExecuteRequest, error) {
	r := ExecuteRequest{
		AppID: d.String(),
		Alloc: DecodeVector(d),
	}
	r.Epoch = d.Int()
	n := d.Count(4 + 4 + 8 + 8)
	if err := d.Err(); err != nil {
		return ExecuteRequest{}, err
	}
	if n < 1 || n > MaxHolds {
		return ExecuteRequest{}, fmt.Errorf("protocol: execute of %d tasks", n)
	}
	r.Tasks = make([]TaskStart, n)
	for i := range r.Tasks {
		r.Tasks[i] = TaskStart{
			ReservationID:   d.String(),
			TaskID:          d.String(),
			Work:            d.F64(),
			InitialProgress: d.F64(),
		}
	}
	if err := d.Err(); err != nil {
		return ExecuteRequest{}, err
	}
	return r, nil
}

// TaskEventKind classifies the task events an LRM reports in its updates.
type TaskEventKind int

// Task event kinds.
const (
	TaskEventDone TaskEventKind = iota + 1
	TaskEventEvicted
	TaskEventProgress
	// TaskEventDrained reports a task cancelled locally by a gracefully
	// departing node: the LRM captured the exact progress, so the GRM can
	// requeue the task with zero lost work instead of rolling back to the
	// last checkpoint boundary.
	TaskEventDrained
)

// String implements fmt.Stringer.
func (k TaskEventKind) String() string {
	switch k {
	case TaskEventDone:
		return "done"
	case TaskEventEvicted:
		return "evicted"
	case TaskEventProgress:
		return "progress"
	case TaskEventDrained:
		return "drained"
	default:
		return "unknown"
	}
}

// TaskEvent is one LRM → GRM report about a task, carried by an update.
type TaskEvent struct {
	Kind     TaskEventKind
	AppID    string
	TaskID   string
	NodeID   string
	Progress float64 // MI completed at event time
	At       time.Time
}

// taskEventMin is the encoded size of a TaskEvent whose strings are empty.
const taskEventMin = 1 + 3*4 + 8 + timeLen

// encodedLen is the exact encoded size of the event.
func (ev *TaskEvent) encodedLen() int {
	return taskEventMin + len(ev.AppID) + len(ev.TaskID) + len(ev.NodeID)
}

// Encode writes the event.
func (ev TaskEvent) Encode(e *orb.Encoder) {
	e.Grow(ev.encodedLen())
	e.PutU8(uint8(ev.Kind))
	e.PutString(ev.AppID)
	e.PutString(ev.TaskID)
	e.PutString(ev.NodeID)
	e.PutF64(ev.Progress)
	e.PutTime(ev.At)
}

// rawTaskEvent is a TaskEvent as the wire holds it: its IDs alias the frame.
type rawTaskEvent struct {
	kind                  TaskEventKind
	appID, taskID, nodeID []byte
	progress              float64
	at                    time.Time
}

// readTaskEvent reads one event's fields in their wire order, the one place
// that order is read; d's error tells whether they were all there.
func readTaskEvent(d *orb.Decoder) rawTaskEvent {
	return rawTaskEvent{
		kind:     TaskEventKind(d.U8()),
		appID:    d.RawString(),
		taskID:   d.RawString(),
		nodeID:   d.RawString(),
		progress: d.F64(),
		at:       d.Time(),
	}
}

// EncodeUpdate writes one OpUpdate body: NodeStatus ‖ u32 n ‖ n × TaskEvent.
func EncodeUpdate(e *orb.Encoder, s NodeStatus, events []TaskEvent) {
	n := s.encodedLen() + 4
	for i := range events {
		n += events[i].encodedLen()
	}
	e.Grow(n)
	s.Encode(e)
	e.PutU32(uint32(len(events)))
	for _, ev := range events {
		ev.Encode(e)
	}
}

// DecodeUpdate reads one OpUpdate body. It fails — before the caller has
// anything to apply — on a truncated or over-long event list, on more than
// MaxWindows windows and on an event of no known kind. like is the status
// the receiver holds for the node, or nil: the decoded status shares like's
// identity strings where they are unchanged (decodeNodeStatus), so a node
// that reports the same ID, reference, platform and LAN costs no
// string copy. The status's windows go into buf and are returned beside it.
// The events, all of them checked, stay in the frame d reads: UpdateEvents
// decodes them for the receiver to apply one at a time.
func DecodeUpdate(d *orb.Decoder, like *NodeStatus, buf *[MaxWindows]AvailWindow) (NodeStatus, []AvailWindow, UpdateEvents, error) {
	s, windows, err := decodeNodeStatus(d, like, buf)
	if err != nil {
		return NodeStatus{}, nil, UpdateEvents{}, err
	}
	n := d.Count(taskEventMin)
	if err := d.Err(); err != nil {
		return NodeStatus{}, nil, UpdateEvents{}, err
	}
	events := UpdateEvents{d: *d, n: n, nodeID: s.NodeID}
	for range n {
		r := readTaskEvent(d)
		if err := d.Err(); err != nil {
			return NodeStatus{}, nil, UpdateEvents{}, err
		}
		if r.kind < TaskEventDone || r.kind > TaskEventDrained {
			return NodeStatus{}, nil, UpdateEvents{}, fmt.Errorf("protocol: event of kind %d for task %s in an update", r.kind, r.taskID)
		}
	}
	return s, windows, events, nil
}

// UpdateEvents is the event list of an update DecodeUpdate has read and
// checked, still in the request's frame: Next decodes the events in order, one
// at a time, so a receiver applies them without a slice to hold them. It reads
// the frame, so it is good only while the frame is: within the servant's call.
type UpdateEvents struct {
	d      orb.Decoder // at the next event
	n      int
	nodeID string // the update's status's
}

// Len returns how many events Next has yet to return.
func (u *UpdateEvents) Len() int { return u.n }

// Next returns the next event; Len must be positive. The event's application
// and task IDs are left empty: appID and taskID are their wire bytes, which
// alias the frame, for the receiver to look up the task they name without
// copying them. Its node ID is the status's when the wire bytes equal it, as
// they do unless the LRM reports for another node, and a copy otherwise.
func (u *UpdateEvents) Next() (ev TaskEvent, appID, taskID []byte) {
	u.n--
	r := readTaskEvent(&u.d)
	ev = TaskEvent{Kind: r.kind, NodeID: u.nodeID, Progress: r.progress, At: r.at}
	if string(r.nodeID) != u.nodeID {
		ev.NodeID = string(r.nodeID)
	}
	return ev, r.appID, r.taskID
}

// Collect returns the events Next has yet to return in a slice of their own,
// nil for none, their IDs copies.
func (u *UpdateEvents) Collect() []TaskEvent {
	if u.n == 0 {
		return nil
	}
	events := make([]TaskEvent, 0, u.n)
	for u.n > 0 {
		ev, appID, taskID := u.Next()
		ev.AppID, ev.TaskID = string(appID), string(taskID)
		events = append(events, ev)
	}
	return events
}

// TaskClaim is one entry of an LRM's reconcile report: a task the node is
// currently running, with the application it believes owns it.
type TaskClaim struct {
	TaskID string
	AppID  string
}

// ReconcileRequest is the LRM → GRM exchange that follows re-registration
// with a (possibly new) GRM: the node reports every task it is running, and
// the GRM answers with the task IDs it does not recognize, which the LRM
// then cancels locally. After a replica-set failover the replicated state
// covers all claims and nothing is cancelled; after a cold rebuild the placeholder
// tasks of the dead manager's placements are reaped so their capacity frees
// up for re-placement.
type ReconcileRequest struct {
	NodeID string
	Claims []TaskClaim
}

// Encode writes the request.
func (r ReconcileRequest) Encode(e *orb.Encoder) {
	n := strLen(r.NodeID) + 4
	for _, c := range r.Claims {
		n += strLen(c.TaskID) + strLen(c.AppID)
	}
	e.Grow(n)
	e.PutString(r.NodeID)
	e.PutU32(uint32(len(r.Claims)))
	for _, c := range r.Claims {
		e.PutString(c.TaskID)
		e.PutString(c.AppID)
	}
}

// DecodeReconcileRequest reads a ReconcileRequest.
func DecodeReconcileRequest(d *orb.Decoder) (ReconcileRequest, error) {
	r := ReconcileRequest{NodeID: d.String()}
	n := d.Count(4 + 4)
	if err := d.Err(); err != nil {
		return ReconcileRequest{}, err
	}
	if n > 0 {
		r.Claims = make([]TaskClaim, n)
	}
	for i := range r.Claims {
		r.Claims[i] = TaskClaim{TaskID: d.String(), AppID: d.String()}
	}
	return r, d.Err()
}

// Encoded sizes of the fixed-size fields. Every encoder here grows its
// buffer once, by the exact size of what it writes (DESIGN.md §13).
const (
	vectorLen = 4 * 8
	timeLen   = 8 + 4
)

// strLen is the encoded size of a string: its u32 length and its bytes.
func strLen(s string) int { return 4 + len(s) }

// refLen is the encoded size of an object reference.
func refLen(ref orb.ObjectRef) int {
	return strLen(ref.Endpoint.Net) + strLen(ref.Endpoint.Addr) + strLen(ref.Key)
}

// EncodeVector writes a resource vector.
func EncodeVector(e *orb.Encoder, v resource.Vector) {
	e.PutF64(v.MIPS)
	e.PutF64(v.RAMMB)
	e.PutF64(v.DiskMB)
	e.PutF64(v.NetMbps)
}

// DecodeVector reads a resource vector.
func DecodeVector(d *orb.Decoder) resource.Vector {
	return resource.Vector{
		MIPS:    d.F64(),
		RAMMB:   d.F64(),
		DiskMB:  d.F64(),
		NetMbps: d.F64(),
	}
}

// EncodeRef writes an object reference.
func EncodeRef(e *orb.Encoder, ref orb.ObjectRef) {
	e.PutString(ref.Endpoint.Net)
	e.PutString(ref.Endpoint.Addr)
	e.PutString(ref.Key)
}

// DecodeRef reads an object reference. Its network is one of orb's and its
// key almost always one of this package's, and those come back as the
// constants rather than as copies: every status a GRM holds keeps a
// reference.
func DecodeRef(d *orb.Decoder) orb.ObjectRef {
	return decodeRef(d, orb.ObjectRef{})
}

// decodeRef reads an object reference whose address and key are like's where
// the wire bytes equal them.
func decodeRef(d *orb.Decoder, like orb.ObjectRef) orb.ObjectRef {
	return orb.ObjectRef{
		Endpoint: orb.Endpoint{Net: knownString(d, orb.NetLoopback, orb.NetTCP), Addr: knownString(d, like.Endpoint.Addr)},
		Key:      knownString(d, like.Key, LRMKey, GRMKey),
	}
}

// knownString reads a string and returns the one of known it equals, or else
// a copy. A known string that is a record's field rather than a constant
// saves the same copy: the decoded value shares the record's bytes.
func knownString(d *orb.Decoder, known ...string) string {
	raw := d.RawString()
	for _, k := range known {
		if string(raw) == k {
			return k
		}
	}
	return string(raw)
}

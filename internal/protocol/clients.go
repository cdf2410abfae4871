package protocol

import (
	"slices"

	"integrade/internal/orb"
)

// The remote operations of the two managers, each declared once: GRMClient
// and the GRM invoke the declarations, and the servants register them with
// orb.Serve (DESIGN.md §4 lists them).
var (
	// Update pushes a NodeStatus and the task events that ride it; the reply
	// is the manager's fencing epoch.
	Update = &orb.Op[UpdateRequest, int]{Name: OpUpdate,
		EncodeReq: UpdateRequest.Encode, DecodeReq: decodeUpdateRequest,
		EncodeRep: encodeInt, DecodeRep: decodeInt}
	// Submit submits an application; the reply is its ID.
	Submit = &orb.Op[ApplicationSpec, string]{Name: OpSubmit,
		EncodeReq: ApplicationSpec.Encode, DecodeReq: DecodeApplicationSpec,
		EncodeRep: encodeString, DecodeRep: decodeString}
	// Notify reports a task event the GRM must act on now.
	Notify = &orb.Op[TaskEvent, struct{}]{Name: OpNotify,
		EncodeReq: TaskEvent.Encode, DecodeReq: DecodeTaskEvent}
	// GetAppStatus fetches an application's status by its ID.
	GetAppStatus = &orb.Op[string, AppStatus]{Name: OpAppStatus,
		EncodeReq: encodeString, DecodeReq: decodeString,
		EncodeRep: AppStatus.Encode, DecodeRep: DecodeAppStatus}
	// CancelApp aborts an application by its ID.
	CancelApp = &orb.Op[string, struct{}]{Name: OpCancelApp,
		EncodeReq: encodeString, DecodeReq: decodeString}
	// ListApps returns the IDs of every application, sorted.
	ListApps = &orb.Op[struct{}, []string]{Name: OpListApps,
		EncodeRep: encodeStrings, DecodeRep: decodeStrings}
	// Reconcile reports a node's running tasks; the reply names the orphans.
	Reconcile = &orb.Op[ReconcileRequest, []string]{Name: OpReconcile,
		EncodeReq: ReconcileRequest.Encode, DecodeReq: DecodeReconcileRequest,
		EncodeRep: encodeStrings, DecodeRep: decodeStrings}

	// Reserve asks an LRM for holds; the reply names the ones granted.
	Reserve = &orb.Op[ReserveRequest, ReserveReply]{Name: OpReserve,
		EncodeReq: ReserveRequest.Encode, DecodeReq: DecodeReserveRequest,
		EncodeRep: ReserveReply.Encode, DecodeRep: DecodeReserveReply}
	// Release cancels a granted reservation, by its ID, that will not be used.
	Release = &orb.Op[string, struct{}]{Name: OpRelease,
		EncodeReq: encodeString, DecodeReq: decodeString}
	// Execute binds reservations to tasks and starts them, all or none.
	Execute = &orb.Op[ExecuteRequest, struct{}]{Name: OpExecute,
		EncodeReq: ExecuteRequest.Encode, DecodeReq: DecodeExecuteRequest}
	// Cancel aborts a running task; the reply is its progress at
	// cancellation, 0 if the task was unknown or the epoch stale.
	Cancel = &orb.Op[CancelRequest, float64]{Name: OpCancel,
		EncodeReq: CancelRequest.Encode, DecodeReq: decodeCancelRequest,
		EncodeRep: encodeF64, DecodeRep: decodeF64}
	// Adopt asks an LRM to register with the manager that took office.
	Adopt = &orb.Op[AdoptRequest, struct{}]{Name: OpAdopt,
		EncodeReq: AdoptRequest.Encode, DecodeReq: decodeAdoptRequest}
)

// UpdateRequest is one OpUpdate body: a NodeStatus and the task events that
// ride it (TaskEventKind.RidesUpdate).
type UpdateRequest struct {
	Status NodeStatus
	Events []TaskEvent
}

// Encode writes the request (EncodeUpdate).
func (r UpdateRequest) Encode(e *orb.Encoder) { EncodeUpdate(e, r.Status, r.Events) }

// decodeUpdateRequest reads an UpdateRequest, its windows in a slice of their
// own. The GRM decodes against the node's record instead (DecodeUpdate).
func decodeUpdateRequest(d *orb.Decoder) (UpdateRequest, error) {
	var buf [MaxWindows]AvailWindow
	s, windows, events, err := DecodeUpdate(d, nil, &buf)
	if err != nil {
		return UpdateRequest{}, err
	}
	if len(windows) > 0 {
		s.Windows = slices.Clone(windows)
	}
	return UpdateRequest{Status: s, Events: events.Collect()}, nil
}

// CancelRequest is one OpCancel body: the task to abort and the issuing
// manager's fencing epoch.
type CancelRequest struct {
	TaskID string
	Epoch  int
}

// Encode writes the request.
func (r CancelRequest) Encode(e *orb.Encoder) {
	e.Grow(strLen(r.TaskID) + 8)
	e.PutString(r.TaskID)
	e.PutInt(r.Epoch)
}

func decodeCancelRequest(d *orb.Decoder) (CancelRequest, error) {
	r := CancelRequest{TaskID: d.String()}
	r.Epoch = d.Int()
	return r, d.Err()
}

// AdoptRequest is one OpAdopt body: the calling leader's fencing epoch and
// its GRM reference.
type AdoptRequest struct {
	Epoch int
	GRM   orb.ObjectRef
}

// Encode writes the request.
func (r AdoptRequest) Encode(e *orb.Encoder) {
	e.Grow(8 + refLen(r.GRM))
	e.PutInt(r.Epoch)
	EncodeRef(e, r.GRM)
}

func decodeAdoptRequest(d *orb.Decoder) (AdoptRequest, error) {
	return AdoptRequest{Epoch: d.Int(), GRM: DecodeRef(d)}, d.Err()
}

func encodeString(s string, e *orb.Encoder) {
	e.Grow(strLen(s))
	e.PutString(s)
}

func decodeString(d *orb.Decoder) (string, error) {
	s := d.String()
	return s, d.Err()
}

func encodeStrings(ss []string, e *orb.Encoder) { e.PutStrings(ss) }

func decodeStrings(d *orb.Decoder) ([]string, error) {
	ss := d.Strings()
	return ss, d.Err()
}

func encodeInt(v int, e *orb.Encoder) {
	e.Grow(8)
	e.PutInt(v)
}

func decodeInt(d *orb.Decoder) (int, error) {
	v := d.Int()
	return v, d.Err()
}

func encodeF64(v float64, e *orb.Encoder) {
	e.Grow(8)
	e.PutF64(v)
}

func decodeF64(d *orb.Decoder) (float64, error) {
	v := d.F64()
	return v, d.Err()
}

// GRMClient is the typed stub the LRM, ASCT and peer clusters use to invoke
// a GRM.
type GRMClient struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// NewGRMClient returns a stub for the GRM at ref.
func NewGRMClient(inv orb.Invoker, ref orb.ObjectRef) *GRMClient {
	return &GRMClient{inv: inv, ref: ref}
}

// Ref returns the target reference.
func (c *GRMClient) Ref() orb.ObjectRef { return c.ref }

// Update pushes a NodeStatus (Information Update Protocol), with the task
// events that ride it (TaskEventKind.RidesUpdate), and returns the manager's
// fencing epoch, at least 1. The LRM compares it
// against the newest epoch it has seen to spot a deposed primary still
// answering. An error means the manager may or may not have applied the
// update: the caller sends its events again with the next one.
func (c *GRMClient) Update(s NodeStatus, events ...TaskEvent) (int, error) {
	return Update.Invoke(c.inv, c.ref, UpdateRequest{Status: s, Events: events})
}

// Submit submits an application and returns its assigned ID.
func (c *GRMClient) Submit(spec ApplicationSpec) (string, error) {
	return Submit.Invoke(c.inv, c.ref, spec)
}

// Notify reports a task event the GRM must act on now: an eviction or a
// drain. Completions and progress ride Update instead.
func (c *GRMClient) Notify(ev TaskEvent) error {
	_, err := Notify.Invoke(c.inv, c.ref, ev)
	return err
}

// CancelApp aborts an application: running tasks are cancelled on their
// nodes, pending tasks are dropped.
func (c *GRMClient) CancelApp(appID string) error {
	_, err := CancelApp.Invoke(c.inv, c.ref, appID)
	return err
}

// ListApps returns the IDs of all applications known to the GRM, sorted.
func (c *GRMClient) ListApps() ([]string, error) {
	return ListApps.Invoke(c.inv, c.ref, struct{}{})
}

// Reconcile reports the node's running tasks after (re-)registration and
// returns the task IDs the GRM does not recognize — the orphans the LRM
// should cancel locally.
func (c *GRMClient) Reconcile(req ReconcileRequest) ([]string, error) {
	return Reconcile.Invoke(c.inv, c.ref, req)
}

// AppStatus fetches an application's status. like, if not nil, is one
// fetched before, of the same application: the result shares its strings
// where they are unchanged, as a poll's IDs are, instead of copying them.
func (c *GRMClient) AppStatus(appID string, like *AppStatus) (AppStatus, error) {
	return GetAppStatus.InvokeRaw(c.inv, c.ref, appID, func(d *orb.Decoder) (AppStatus, error) {
		return decodeAppStatus(d, like)
	})
}

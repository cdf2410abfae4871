package protocol

import (
	"integrade/internal/orb"
)

// Every stub below encodes its request into an orb.GetEncoder encoder and puts
// it back once Invoke returns: no transport reads the request after that
// (orb.Invoker), so the next call encodes into the same buffer.

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
	e := orb.GetEncoder()
	EncodeUpdate(e, s, events)
	reply, err := c.inv.Invoke(c.ref, OpUpdate, e.Bytes())
	orb.PutEncoder(e)
	if err != nil {
		return 0, err
	}
	d := orb.NewDecoder(reply)
	epoch := d.Int()
	if err := d.Err(); err != nil {
		return 0, orb.Errorf(orb.CodeMarshal, "update reply: %v", err)
	}
	return epoch, nil
}

// Submit submits an application and returns its assigned ID.
func (c *GRMClient) Submit(spec ApplicationSpec) (string, error) {
	e := orb.GetEncoder()
	spec.Encode(e)
	reply, err := c.inv.Invoke(c.ref, OpSubmit, e.Bytes())
	orb.PutEncoder(e)
	if err != nil {
		return "", err
	}
	d := orb.NewDecoder(reply)
	id := d.String()
	if err := d.Err(); err != nil {
		return "", orb.Errorf(orb.CodeMarshal, "submit reply: %v", err)
	}
	return id, nil
}

// Notify reports a task event the GRM must act on now: an eviction or a
// drain. Completions and progress ride Update instead.
func (c *GRMClient) Notify(ev TaskEvent) error {
	e := orb.GetEncoder()
	ev.Encode(e)
	_, err := c.inv.Invoke(c.ref, OpNotify, e.Bytes())
	orb.PutEncoder(e)
	return err
}

// Departing announces a predicted owner-driven departure: the GRM withdraws
// the node's trader offers and marks it Departing (distinct from Suspect)
// so the failure detector does not burn its heartbeat-miss threshold on a
// node that politely said goodbye.
func (c *GRMClient) Departing(n DepartureNotice) error {
	e := orb.GetEncoder()
	n.Encode(e)
	_, err := c.inv.Invoke(c.ref, OpDeparting, e.Bytes())
	orb.PutEncoder(e)
	return err
}

// CancelApp aborts an application: running tasks are cancelled on their
// nodes, pending tasks are dropped.
func (c *GRMClient) CancelApp(appID string) error {
	e := orb.GetEncoder()
	e.Grow(strLen(appID))
	e.PutString(appID)
	_, err := c.inv.Invoke(c.ref, OpCancelApp, e.Bytes())
	orb.PutEncoder(e)
	return err
}

// ListApps returns the IDs of all applications known to the GRM, sorted.
func (c *GRMClient) ListApps() ([]string, error) {
	reply, err := c.inv.Invoke(c.ref, OpListApps, nil)
	if err != nil {
		return nil, err
	}
	d := orb.NewDecoder(reply)
	ids := d.Strings()
	if err := d.Err(); err != nil {
		return nil, orb.Errorf(orb.CodeMarshal, "listApps reply: %v", err)
	}
	return ids, nil
}

// Reconcile reports the node's running tasks after (re-)registration and
// returns the task IDs the GRM does not recognize — the orphans the LRM
// should cancel locally.
func (c *GRMClient) Reconcile(req ReconcileRequest) ([]string, error) {
	e := orb.GetEncoder()
	req.Encode(e)
	reply, err := c.inv.Invoke(c.ref, OpReconcile, e.Bytes())
	orb.PutEncoder(e)
	if err != nil {
		return nil, err
	}
	d := orb.NewDecoder(reply)
	orphans := d.Strings()
	if err := d.Err(); err != nil {
		return nil, orb.Errorf(orb.CodeMarshal, "reconcile reply: %v", err)
	}
	return orphans, nil
}

// AppStatus fetches an application's status.
func (c *GRMClient) AppStatus(appID string) (AppStatus, error) {
	e := orb.GetEncoder()
	e.Grow(strLen(appID))
	e.PutString(appID)
	reply, err := c.inv.Invoke(c.ref, OpAppStatus, e.Bytes())
	orb.PutEncoder(e)
	if err != nil {
		return AppStatus{}, err
	}
	return DecodeAppStatus(orb.NewDecoder(reply))
}

// LRMClient is the typed stub the GRM uses to negotiate with an LRM.
type LRMClient struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// NewLRMClient returns a stub for the LRM at ref.
func NewLRMClient(inv orb.Invoker, ref orb.ObjectRef) *LRMClient {
	return &LRMClient{inv: inv, ref: ref}
}

// Reserve asks the LRM for req.Count holds; the reply names the ones granted.
func (c *LRMClient) Reserve(req ReserveRequest) (ReserveReply, error) {
	e := orb.GetEncoder()
	req.Encode(e)
	reply, err := c.inv.Invoke(c.ref, OpReserve, e.Bytes())
	orb.PutEncoder(e)
	if err != nil {
		return ReserveReply{}, err
	}
	return DecodeReserveReply(orb.NewDecoder(reply))
}

// Release cancels a granted reservation that will not be used (a surplus
// grant, an abandoned gang, a failed Execute), freeing the hold before its TTL
// expires.
func (c *LRMClient) Release(reservationID string) error {
	e := orb.GetEncoder()
	e.Grow(strLen(reservationID))
	e.PutString(reservationID)
	_, err := c.inv.Invoke(c.ref, OpRelease, e.Bytes())
	orb.PutEncoder(e)
	return err
}

// Execute binds reservations to tasks and starts them, all or none: after an
// error no task of req runs and none of its reservations is committed.
func (c *LRMClient) Execute(req ExecuteRequest) error {
	e := orb.GetEncoder()
	req.Encode(e)
	_, err := c.inv.Invoke(c.ref, OpExecute, e.Bytes())
	orb.PutEncoder(e)
	return err
}

// Cancel aborts a running task on behalf of the manager with the given
// fencing epoch. It returns the task's progress at
// cancellation (0 if the task was unknown or the epoch stale).
func (c *LRMClient) Cancel(taskID string, epoch int) (float64, error) {
	e := orb.GetEncoder()
	e.Grow(strLen(taskID) + 8)
	e.PutString(taskID)
	e.PutInt(epoch)
	reply, err := c.inv.Invoke(c.ref, OpCancel, e.Bytes())
	orb.PutEncoder(e)
	if err != nil {
		return 0, err
	}
	d := orb.NewDecoder(reply)
	progress := d.F64()
	if err := d.Err(); err != nil {
		return 0, orb.Errorf(orb.CodeMarshal, "cancel reply: %v", err)
	}
	return progress, nil
}

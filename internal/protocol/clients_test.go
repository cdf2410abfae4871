package protocol

import (
	"slices"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/resource"
)

// fakeManagers implements both manager interfaces in-memory to exercise the
// typed stubs end to end over the loopback ORB.
type fakeManagers struct {
	updates      []NodeStatus
	rode         []TaskEvent // arrived inside updates
	events       []TaskEvent // arrived by OpNotify
	apps         map[string]AppStatus
	order        []string
	granted      bool
	executed     []ExecuteRequest
	released     []string
	canceled     []string
	cancelEpochs []int
}

func newFakes() *fakeManagers {
	return &fakeManagers{apps: make(map[string]AppStatus), granted: true}
}

func (f *fakeManagers) grmServant() orb.Servant {
	return orb.NewOpMux().
		Handle(OpUpdate, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			var buf [MaxWindows]AvailWindow
			s, windows, events, err := DecodeUpdate(req, nil, &buf)
			if err != nil {
				return nil, err
			}
			s.Windows = slices.Clone(windows)
			f.updates = append(f.updates, s)
			f.rode = append(f.rode, events...)
			var e orb.Encoder
			e.PutInt(7)
			return &e, nil
		}).
		Handle(OpSubmit, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			spec, err := DecodeApplicationSpec(req)
			if err != nil {
				return nil, err
			}
			id := "app-" + spec.Name
			f.apps[id] = AppStatus{AppID: id, Name: spec.Name, Kind: spec.Kind}
			f.order = append(f.order, id)
			var e orb.Encoder
			e.PutString(id)
			return &e, nil
		}).
		Handle(OpNotify, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			ev, err := DecodeTaskEvent(req)
			if err != nil {
				return nil, err
			}
			f.events = append(f.events, ev)
			return &orb.Encoder{}, nil
		}).
		Handle(OpAppStatus, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			id := req.String()
			st, ok := f.apps[id]
			if !ok {
				return nil, orb.Errorf(orb.CodeApplication, "unknown app %q", id)
			}
			var e orb.Encoder
			st.Encode(&e)
			return &e, nil
		}).
		Handle(OpCancelApp, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			f.canceled = append(f.canceled, req.String())
			return &orb.Encoder{}, nil
		}).
		Handle(OpListApps, func(string, *orb.Decoder) (*orb.Encoder, error) {
			var e orb.Encoder
			e.PutStrings(f.order)
			return &e, nil
		})
}

func (f *fakeManagers) lrmServant() orb.Servant {
	return orb.NewOpMux().
		Handle(OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			reply := ReserveReply{Granted: f.granted, ReservationID: "rsv-1", Reason: "because"}
			var e orb.Encoder
			reply.Encode(&e)
			return &e, nil
		}).
		Handle(OpRelease, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			f.released = append(f.released, req.String())
			return &orb.Encoder{}, nil
		}).
		Handle(OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			r, err := DecodeExecuteRequest(req)
			if err != nil {
				return nil, err
			}
			f.executed = append(f.executed, r)
			return &orb.Encoder{}, nil
		}).
		Handle(OpCancel, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			_ = req.String()
			f.cancelEpochs = append(f.cancelEpochs, req.Int())
			var e orb.Encoder
			e.PutF64(123.5)
			return &e, nil
		})
}

func setup(t *testing.T) (*fakeManagers, *GRMClient, *LRMClient) {
	t.Helper()
	o := orb.New()
	f := newFakes()
	adapter := orb.NewAdapter()
	if err := adapter.Register(GRMKey, f.grmServant()); err != nil {
		t.Fatal(err)
	}
	if err := adapter.Register(LRMKey, f.lrmServant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("mgr", adapter)
	if err != nil {
		t.Fatal(err)
	}
	grm := NewGRMClient(o, orb.ObjectRef{Endpoint: ep, Key: GRMKey})
	lrm := NewLRMClient(o, orb.ObjectRef{Endpoint: ep, Key: LRMKey})
	return f, grm, lrm
}

func TestGRMClientRoundTrips(t *testing.T) {
	f, grm, _ := setup(t)
	if grm.Ref().Key != GRMKey {
		t.Fatal("Ref mismatch")
	}

	status := NodeStatus{NodeID: "n1", Timestamp: time.Unix(9, 0).UTC()}
	epoch, err := grm.Update(status)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("update epoch = %d, want 7", epoch)
	}
	if len(f.updates) != 1 || f.updates[0].NodeID != "n1" || len(f.rode) != 0 {
		t.Fatalf("updates = %+v with events %+v", f.updates, f.rode)
	}
	riders := []TaskEvent{
		{Kind: TaskEventDone, AppID: "a", TaskID: "a/t0", NodeID: "n1", Progress: 9, At: time.Unix(9, 0).UTC()},
		{Kind: TaskEventProgress, AppID: "a", TaskID: "a/t1", NodeID: "n1", Progress: 4, At: time.Unix(9, 0).UTC()},
	}
	if _, err := grm.Update(status, riders...); err != nil {
		t.Fatal(err)
	}
	if len(f.updates) != 2 || len(f.rode) != 2 || f.rode[0] != riders[0] || f.rode[1] != riders[1] {
		t.Fatalf("update with events: %d updates, events %+v", len(f.updates), f.rode)
	}
	if _, err := grm.Update(status, TaskEvent{Kind: TaskEventEvicted, TaskID: "a/t2"}); !orb.IsCode(err, orb.CodeApplication) {
		t.Fatalf("evicted event in an update: err = %v, want the servant's refusal", err)
	}

	id, err := grm.Submit(ApplicationSpec{
		Name: "demo", Kind: AppSequential, NumTasks: 1, WorkPerTask: 1,
		Alloc: resource.Vector{MIPS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != "app-demo" {
		t.Fatalf("id = %q", id)
	}

	if err := grm.Notify(TaskEvent{Kind: TaskEventDone, AppID: id, TaskID: "t0", At: time.Unix(1, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	if len(f.events) != 1 || f.events[0].Kind != TaskEventDone {
		t.Fatalf("events = %+v", f.events)
	}

	st, err := grm.AppStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppID != id || st.Name != "demo" {
		t.Fatalf("status = %+v", st)
	}
	if _, err := grm.AppStatus("ghost"); err == nil {
		t.Fatal("ghost app status succeeded")
	}

	ids, err := grm.ListApps()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("ListApps = %v", ids)
	}

	if err := grm.CancelApp(id); err != nil {
		t.Fatal(err)
	}
	if len(f.canceled) != 1 || f.canceled[0] != id {
		t.Fatalf("canceled = %v", f.canceled)
	}
}

func TestLRMClientRoundTrips(t *testing.T) {
	f, _, lrm := setup(t)
	if lrm.Ref().Key != LRMKey {
		t.Fatal("Ref mismatch")
	}

	reply, err := lrm.Reserve(ReserveRequest{Holder: "app", Amount: resource.Vector{MIPS: 10}, TTL: time.Second, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Granted || reply.ReservationID != "rsv-1" {
		t.Fatalf("reply = %+v", reply)
	}

	if err := lrm.Execute(ExecuteRequest{
		Alloc: resource.Vector{MIPS: 10},
		Tasks: []TaskStart{{ReservationID: "rsv-1", TaskID: "t", Work: 5}},
	}); err != nil {
		t.Fatal(err)
	}
	if len(f.executed) != 1 || len(f.executed[0].Tasks) != 1 || f.executed[0].Tasks[0].TaskID != "t" {
		t.Fatalf("executed = %+v", f.executed)
	}

	if err := lrm.Release("rsv-1"); err != nil {
		t.Fatal(err)
	}
	if len(f.released) != 1 || f.released[0] != "rsv-1" {
		t.Fatalf("released = %v", f.released)
	}

	progress, err := lrm.Cancel("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	if progress != 123.5 {
		t.Fatalf("progress = %v", progress)
	}
	if len(f.cancelEpochs) != 1 || f.cancelEpochs[0] != 3 {
		t.Fatalf("cancel epochs = %v", f.cancelEpochs)
	}
}

func TestClientsSurfaceTransportErrors(t *testing.T) {
	o := orb.New()
	dead := orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "nowhere"}, Key: GRMKey}
	grm := NewGRMClient(o, dead)
	if _, err := grm.Update(NodeStatus{}); err == nil {
		t.Fatal("update to dead endpoint succeeded")
	}
	if _, err := grm.Submit(ApplicationSpec{Name: "x", Kind: AppSequential, NumTasks: 1, WorkPerTask: 1}); err == nil {
		t.Fatal("submit to dead endpoint succeeded")
	}
	if _, err := grm.ListApps(); err == nil {
		t.Fatal("list to dead endpoint succeeded")
	}
	lrm := NewLRMClient(o, dead)
	if _, err := lrm.Reserve(ReserveRequest{}); err == nil {
		t.Fatal("reserve to dead endpoint succeeded")
	}
	if _, err := lrm.Cancel("x", 0); err == nil {
		t.Fatal("cancel to dead endpoint succeeded")
	}
}

package protocol

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"integrade/internal/orb"
	"integrade/internal/resource"
)

func TestNodeStatusRoundTrip(t *testing.T) {
	s := NodeStatus{
		NodeID: "node-7",
		LRMRef: orb.ObjectRef{
			Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "cluster-0"},
			Key:      "lrm",
		},
		Platform:      resource.Platform{Arch: "amd64", OS: "linux"},
		LANID:         "lanA",
		Capacity:      resource.Vector{MIPS: 1000, RAMMB: 512, DiskMB: 100, NetMbps: 100},
		GridFree:      resource.Vector{MIPS: 500, RAMMB: 256, DiskMB: 100, NetMbps: 100},
		Dedicated:     false,
		OwnerBusy:     true,
		PredictedIdle: 90 * time.Minute,
		Timestamp:     time.Date(2026, 7, 4, 10, 0, 0, 0, time.UTC),
		Windows: []AvailWindow{
			{
				Start:      time.Date(2026, 7, 4, 10, 0, 0, 0, time.UTC),
				End:        time.Date(2026, 7, 4, 18, 0, 0, 0, time.UTC),
				Confidence: 0.75,
			},
			{
				Start:      time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC),
				End:        time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC),
				Confidence: 1,
			},
		},
	}
	var e orb.Encoder
	s.Encode(&e)
	got, err := DecodeNodeStatus(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, s)
	}
}

func TestReserveRoundTrip(t *testing.T) {
	req := ReserveRequest{
		Holder: "app-3",
		Amount: resource.Vector{MIPS: 400, RAMMB: 64},
		TTL:    30 * time.Second,
		Epoch:  2,
		Count:  4,
	}
	var e orb.Encoder
	req.Encode(&e)
	gotReq, err := DecodeReserveRequest(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("request round trip = %+v", gotReq)
	}

	for ids, rep := range map[int]ReserveReply{
		0: {Reason: "insufficient free capacity"},
		1: {Granted: true, ReservationID: "rsv-1"},
		3: {Granted: true, ReservationID: "rsv-1", More: []string{"rsv-2", "rsv-3"}},
	} {
		e.Reset()
		rep.Encode(&e)
		gotRep, err := DecodeReserveReply(orb.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRep, rep) {
			t.Fatalf("reply round trip = %+v, want %+v", gotRep, rep)
		}
		if got := len(gotRep.IDs()); got != ids {
			t.Fatalf("reply %+v names %d holds, want %d", rep, got, ids)
		}
	}
}

// TestReserveCountBounds: a Reserve for no hold or for more than MaxHolds, and
// an Execute of no task or of more than MaxHolds, do not decode.
func TestReserveCountBounds(t *testing.T) {
	for _, n := range []int{0, MaxHolds + 1, 1 << 30} {
		var e orb.Encoder
		ReserveRequest{Holder: "app", Count: n}.Encode(&e)
		if r, err := DecodeReserveRequest(orb.NewDecoder(e.Bytes())); err == nil || r != (ReserveRequest{}) {
			t.Fatalf("a reserve for %d holds decoded: %+v, %v", n, r, err)
		}
		e.Reset()
		// The count alone is out of bounds; no task follows it.
		ExecuteRequest{AppID: "app"}.Encode(&e)
		body := e.Bytes()
		binary.BigEndian.PutUint32(body[len(body)-4:], uint32(n))
		if r, err := DecodeExecuteRequest(orb.NewDecoder(body)); err == nil || r.Tasks != nil {
			t.Fatalf("an execute of %d tasks decoded: %+v, %v", n, r, err)
		}
	}
	var e orb.Encoder
	ReserveReply{Granted: true, ReservationID: "rsv-1"}.Encode(&e)
	body := e.Bytes()
	binary.BigEndian.PutUint32(body[len(body)-4:], MaxHolds)
	if r, err := DecodeReserveReply(orb.NewDecoder(body)); err == nil || r.Granted {
		t.Fatalf("a reply with %d holds decoded: %+v, %v", MaxHolds+1, r, err)
	}
}

func TestExecuteRoundTrip(t *testing.T) {
	req := executeRequest()
	var e orb.Encoder
	req.Encode(&e)
	got, err := DecodeExecuteRequest(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip = %+v", got)
	}
}

func executeRequest() ExecuteRequest {
	return ExecuteRequest{
		AppID: "app-1",
		Alloc: resource.Vector{MIPS: 500, RAMMB: 128},
		Epoch: 3,
		Tasks: []TaskStart{
			{ReservationID: "rsv-9", TaskID: "app-1/t0", Work: 1e6, InitialProgress: 2.5e5},
			{ReservationID: "rsv-10", TaskID: "app-1/t1", Work: 1e6},
		},
	}
}

// The three decoders below take bytes from the network, like DecodeUpdate:
// whatever they are, no panic, nothing alongside an error, and what is accepted
// is inside the MaxHolds bound and encodes back to what was decoded.

func FuzzDecodeReserveRequest(f *testing.F) {
	var e orb.Encoder
	ReserveRequest{Holder: "app-3", Amount: resource.Vector{MIPS: 400}, TTL: time.Minute, Epoch: 1, Count: 4}.Encode(&e)
	body := e.Bytes()
	f.Add(body)
	f.Add(body[:len(body)-2]) // truncated inside the count
	f.Add(body[:len(body)-4]) // no count
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReserveRequest(orb.NewDecoder(data))
		if err != nil {
			if r != (ReserveRequest{}) {
				t.Fatalf("error %v alongside %+v", err, r)
			}
			return
		}
		if r.Count < 1 || r.Count > MaxHolds {
			t.Fatalf("accepted a count of %d", r.Count)
		}
	})
}

func FuzzDecodeReserveReply(f *testing.F) {
	var e orb.Encoder
	ReserveReply{Granted: true, ReservationID: "rsv-1", More: []string{"rsv-2", "rsv-3"}}.Encode(&e)
	body := e.Bytes()
	f.Add(body)
	f.Add(body[:len(body)-3]) // truncated inside the last ID
	e.Reset()
	ReserveReply{Reason: "full"}.Encode(&e)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReserveReply(orb.NewDecoder(data))
		if err != nil {
			if !reflect.DeepEqual(r, ReserveReply{}) {
				t.Fatalf("error %v alongside %+v", err, r)
			}
			return
		}
		if len(r.IDs()) > MaxHolds {
			t.Fatalf("accepted %d holds", len(r.IDs()))
		}
		var back orb.Encoder
		r.Encode(&back)
		if again, err := DecodeReserveReply(orb.NewDecoder(back.Bytes())); err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("%+v encodes back to %+v, %v", r, again, err)
		}
	})
}

func FuzzDecodeExecuteRequest(f *testing.F) {
	var e orb.Encoder
	executeRequest().Encode(&e)
	body := e.Bytes()
	f.Add(body)
	f.Add(body[:len(body)-5]) // truncated inside the last task
	e.Reset()
	ExecuteRequest{AppID: "app-1"}.Encode(&e)
	f.Add(e.Bytes()) // no task
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeExecuteRequest(orb.NewDecoder(data))
		if err != nil {
			if !reflect.DeepEqual(r, ExecuteRequest{}) {
				t.Fatalf("error %v alongside %+v", err, r)
			}
			return
		}
		if len(r.Tasks) < 1 || len(r.Tasks) > MaxHolds {
			t.Fatalf("accepted %d tasks", len(r.Tasks))
		}
	})
}

func TestTaskEventRoundTrip(t *testing.T) {
	ev := TaskEvent{
		Kind:     TaskEventEvicted,
		AppID:    "app-1",
		TaskID:   "app-1/t3",
		NodeID:   "node-12",
		Progress: 123456,
		At:       time.Date(2026, 7, 4, 11, 30, 0, 0, time.UTC),
	}
	var e orb.Encoder
	ev.Encode(&e)
	got, err := DecodeTaskEvent(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatalf("round trip = %+v", got)
	}
}

// updateBody is a well-formed OpUpdate body with two riding events.
func updateBody() (NodeStatus, []TaskEvent, []byte) {
	s := NodeStatus{
		NodeID:    "node-12",
		LRMRef:    orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetTCP, Addr: "10.0.0.12:7000"}, Key: LRMKey},
		Platform:  resource.Platform{Arch: "amd64", OS: "linux"},
		Capacity:  resource.Vector{MIPS: 2000, RAMMB: 2048},
		GridFree:  resource.Vector{MIPS: 1100, RAMMB: 1792},
		Timestamp: time.Date(2026, 7, 4, 11, 30, 0, 0, time.UTC),
		Windows:   []AvailWindow{{Start: time.Unix(10, 0).UTC(), End: time.Unix(20, 0).UTC(), Confidence: 0.5}},
	}
	events := []TaskEvent{
		{Kind: TaskEventDone, AppID: "app-1", TaskID: "app-1/t3", NodeID: "node-12", Progress: 9, At: s.Timestamp},
		{Kind: TaskEventProgress, AppID: "app-1", TaskID: "app-1/t4", NodeID: "node-12", Progress: 4, At: s.Timestamp},
	}
	var e orb.Encoder
	EncodeUpdate(&e, s, events)
	return s, events, e.Bytes()
}

func TestUpdateRoundTrip(t *testing.T) {
	s, events, body := updateBody()
	var buf [MaxWindows]AvailWindow
	gotS, gotWindows, gotEvents, err := DecodeUpdate(orb.NewDecoder(body), nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotS.NodeID != s.NodeID || gotS.GridFree != s.GridFree || gotS.Windows != nil {
		t.Fatalf("status = %+v", gotS)
	}
	if !slices.Equal(gotWindows, s.Windows) || &gotWindows[0] != &buf[0] {
		t.Fatalf("windows = %+v, want %+v in the caller's array", gotWindows, s.Windows)
	}
	if len(gotEvents) != 2 || gotEvents[0] != events[0] || gotEvents[1] != events[1] {
		t.Fatalf("events = %+v", gotEvents)
	}

	// No events is a count of zero, not an absent count.
	var bare orb.Encoder
	EncodeUpdate(&bare, s, nil)
	var statusOnly orb.Encoder
	s.Encode(&statusOnly)
	if bare.Len() != statusOnly.Len()+4 {
		t.Fatalf("empty event list costs %d bytes, want 4", bare.Len()-statusOnly.Len())
	}
	if _, _, gotEvents, err = DecodeUpdate(orb.NewDecoder(bare.Bytes()), nil, &buf); err != nil || len(gotEvents) != 0 {
		t.Fatalf("bare update: events %+v, err %v", gotEvents, err)
	}
	if _, _, _, err := DecodeUpdate(orb.NewDecoder(statusOnly.Bytes()), nil, &buf); err == nil {
		t.Fatal("an update without an event count decoded")
	}
}

// TestUpdateRejectsWhatMustNotRideIt: every truncation of a well-formed
// body, a count of more events than the bytes left can hold, and an event of
// a kind that asks the GRM to act are all decode errors — reported before the
// caller has a status or an event in hand to apply.
func TestUpdateRejectsWhatMustNotRideIt(t *testing.T) {
	s, events, body := updateBody()
	var buf [MaxWindows]AvailWindow
	for cut := 0; cut < len(body); cut++ {
		if _, _, _, err := DecodeUpdate(orb.NewDecoder(body[:cut]), nil, &buf); err == nil {
			t.Fatalf("body truncated to %d of %d bytes decoded", cut, len(body))
		}
	}
	var overlong orb.Encoder
	s.Encode(&overlong)
	overlong.PutU32(1 << 20)
	if _, _, _, err := DecodeUpdate(orb.NewDecoder(overlong.Bytes()), nil, &buf); err == nil {
		t.Fatal("an event count past the bytes left decoded")
	}
	for _, kind := range []TaskEventKind{TaskEventEvicted, TaskEventDrained, 0, 9} {
		bad := append([]TaskEvent(nil), events...)
		bad[1].Kind = kind
		var e orb.Encoder
		EncodeUpdate(&e, s, bad)
		gotS, gotWindows, gotEvents, err := DecodeUpdate(orb.NewDecoder(e.Bytes()), nil, &buf)
		if err == nil || gotS.NodeID != "" || gotWindows != nil || gotEvents != nil {
			t.Fatalf("kind %v rode an update: status %+v, windows %+v, events %+v, err %v", kind, gotS, gotWindows, gotEvents, err)
		}
	}
}

// FuzzDecodeUpdate: DecodeUpdate takes bytes from the network. Whatever they
// are it must not panic, must not return anything alongside an error, and
// what it accepts must hold at most MaxWindows windows, in the caller's array,
// and only kinds that ride an update.
func FuzzDecodeUpdate(f *testing.F) {
	s, _, body := updateBody()
	f.Add(body)
	f.Add(body[:len(body)-3]) // truncated inside the last event
	var statusOnly, overlong orb.Encoder
	s.Encode(&statusOnly)
	f.Add(statusOnly.Bytes()) // no event count
	s.Encode(&overlong)
	overlong.PutU32(1 << 20)
	f.Add(overlong.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [MaxWindows]AvailWindow
		s, windows, events, err := DecodeUpdate(orb.NewDecoder(data), nil, &buf)
		if err != nil {
			if s.NodeID != "" || windows != nil || events != nil {
				t.Fatalf("error %v alongside status %+v, windows %+v, events %+v", err, s, windows, events)
			}
			return
		}
		if s.Windows != nil || len(windows) > MaxWindows || len(windows) > 0 && &windows[0] != &buf[0] {
			t.Fatalf("windows %+v in the status, %d beside it outside the caller's array", s.Windows, len(windows))
		}
		for _, ev := range events {
			if !ev.Kind.RidesUpdate() {
				t.Fatalf("accepted a %v event", ev.Kind)
			}
		}
	})
}

func TestApplicationSpecRoundTrip(t *testing.T) {
	linux := resource.Platform{Arch: "amd64", OS: "linux"}
	spec := ApplicationSpec{
		Name:        "render",
		Kind:        AppBSP,
		NumTasks:    100,
		WorkPerTask: 5e6,
		Requirements: resource.Requirements{
			Platform: &linux,
			Min:      resource.Vector{MIPS: 500, RAMMB: 16},
		},
		Constraint:  "lan == 'lanA'",
		Preferences: resource.Preferences{FasterCPU: true, StayIdleWeight: 1},
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 32},
		Topology: &TopologyRequest{
			Groups:    []TopologyGroup{{Nodes: 50, IntraMbps: 100}, {Nodes: 50, IntraMbps: 100}},
			InterMbps: 10,
		},
		CheckpointEveryWork: 1e5,
		RestartEvicted:      true,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var e orb.Encoder
	spec.Encode(&e)
	got, err := DecodeApplicationSpec(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != spec.Name || got.Kind != spec.Kind || got.NumTasks != spec.NumTasks {
		t.Fatalf("identity fields: %+v", got)
	}
	if got.Requirements.Platform == nil || *got.Requirements.Platform != linux {
		t.Fatalf("platform: %+v", got.Requirements.Platform)
	}
	if got.Topology == nil || got.Topology.TotalNodes() != 100 || got.Topology.InterMbps != 10 {
		t.Fatalf("topology: %+v", got.Topology)
	}
	if !got.RestartEvicted || got.CheckpointEveryWork != 1e5 {
		t.Fatalf("recovery fields: %+v", got)
	}
	if got.Constraint != spec.Constraint {
		t.Fatalf("constraint: %q", got.Constraint)
	}
}

// FuzzDecodeApplicationSpec: a Submit body comes from the network. Whatever it
// is, no panic and nothing alongside an error; what decodes encodes, into a
// buffer sized exactly, to bytes that decode to the same encoding.
func FuzzDecodeApplicationSpec(f *testing.F) {
	linux := resource.Platform{Arch: "amd64", OS: "linux"}
	topo := &TopologyRequest{Groups: []TopologyGroup{{Nodes: 2, IntraMbps: 100}}, InterMbps: 10}
	for _, spec := range []ApplicationSpec{
		{Name: "seq", Kind: AppSequential, NumTasks: 1, WorkPerTask: 1e6},
		{Name: "bsp", Kind: AppBSP, NumTasks: 2, WorkPerTask: 1e6, Requirements: resource.Requirements{Platform: &linux}, Topology: topo},
	} {
		var e orb.Encoder
		spec.Encode(&e)
		f.Add(e.Bytes())
		f.Add(e.Bytes()[:e.Len()-12]) // truncated inside the topology
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeApplicationSpec(orb.NewDecoder(data))
		if err != nil {
			if !reflect.DeepEqual(s, ApplicationSpec{}) {
				t.Fatalf("error %v alongside %+v", err, s)
			}
			return
		}
		reencodes(t, s.Encode, func(d *orb.Decoder) (func(*orb.Encoder), error) {
			again, err := DecodeApplicationSpec(d)
			return again.Encode, err
		})
	})
}

// FuzzDecodeAppStatus: an AppStatus reply comes from the network, like a
// Submit body, and is held to the same rules.
func FuzzDecodeAppStatus(f *testing.F) {
	var e orb.Encoder
	AppStatus{AppID: "app-1", Name: "sim", Kind: AppParametric, Tasks: []TaskStatus{
		{TaskID: "t0", NodeID: "n1", State: TaskDone, Progress: 100, Work: 100},
		{TaskID: "t1", NodeID: "n2", State: TaskRunning, Progress: 50, Work: 100, Restarts: 1},
	}}.Encode(&e)
	f.Add(e.Bytes())
	f.Add(e.Bytes()[:e.Len()-5]) // truncated inside the last task
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAppStatus(orb.NewDecoder(data))
		if err != nil {
			if !reflect.DeepEqual(a, AppStatus{}) {
				t.Fatalf("error %v alongside %+v", err, a)
			}
			return
		}
		reencodes(t, a.Encode, func(d *orb.Decoder) (func(*orb.Encoder), error) {
			again, err := DecodeAppStatus(d)
			return again.Encode, err
		})
	})
}

// reencodes checks what a fuzzer accepted: it encodes into a buffer grown once
// to exactly its size, and the bytes decode to a value that encodes to them
// again. (Comparing encodings rather than values lets NaN and a boolean byte
// other than 1 through.)
func reencodes(t *testing.T, encode func(*orb.Encoder), decode func(*orb.Decoder) (func(*orb.Encoder), error)) {
	t.Helper()
	var first orb.Encoder
	encode(&first)
	if first.Len() != cap(first.Bytes()) {
		t.Fatalf("%d bytes encoded into a buffer of %d", first.Len(), cap(first.Bytes()))
	}
	encodeAgain, err := decode(orb.NewDecoder(first.Bytes()))
	if err != nil {
		t.Fatalf("the encoding of an accepted value does not decode: %v", err)
	}
	var second orb.Encoder
	encodeAgain(&second)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("encodes as %x, then as %x", first.Bytes(), second.Bytes())
	}
}

func TestApplicationSpecValidate(t *testing.T) {
	base := ApplicationSpec{
		Name:        "a",
		Kind:        AppSequential,
		NumTasks:    1,
		WorkPerTask: 100,
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*ApplicationSpec)
	}{
		{"no name", func(s *ApplicationSpec) { s.Name = "" }},
		{"bad kind", func(s *ApplicationSpec) { s.Kind = 0 }},
		{"sequential multi-task", func(s *ApplicationSpec) { s.NumTasks = 2 }},
		{"zero work", func(s *ApplicationSpec) { s.WorkPerTask = 0 }},
		{"bsp zero tasks", func(s *ApplicationSpec) { s.Kind = AppBSP; s.NumTasks = 0 }},
		{"topology mismatch", func(s *ApplicationSpec) {
			s.Kind = AppBSP
			s.NumTasks = 4
			s.Topology = &TopologyRequest{Groups: []TopologyGroup{{Nodes: 3}}}
		}},
		{"topology empty group", func(s *ApplicationSpec) {
			s.Kind = AppBSP
			s.NumTasks = 0
			s.Topology = &TopologyRequest{Groups: []TopologyGroup{{Nodes: 0}}}
		}},
		{"negative checkpoint", func(s *ApplicationSpec) { s.CheckpointEveryWork = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

func TestEffectiveAlloc(t *testing.T) {
	s := ApplicationSpec{Requirements: resource.Requirements{Min: resource.Vector{MIPS: 100}}}
	if got := s.EffectiveAlloc(); got.MIPS != 100 {
		t.Fatalf("default alloc = %v", got)
	}
	s.Alloc = resource.Vector{MIPS: 300}
	if got := s.EffectiveAlloc(); got.MIPS != 300 {
		t.Fatalf("explicit alloc = %v", got)
	}
}

func TestAppStatusRoundTripAndDone(t *testing.T) {
	a := AppStatus{
		AppID:        "app-1",
		Name:         "sim",
		Kind:         AppParametric,
		Submitted:    time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC),
		Negotiations: 7,
		Tasks: []TaskStatus{
			{TaskID: "t0", NodeID: "n1", State: TaskDone, Progress: 100, Work: 100},
			{TaskID: "t1", NodeID: "n2", State: TaskRunning, Progress: 50, Work: 100, Restarts: 1},
		},
	}
	if a.Done() {
		t.Fatal("incomplete app reported Done")
	}
	var e orb.Encoder
	a.Encode(&e)
	got, err := DecodeAppStatus(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.AppID != a.AppID || len(got.Tasks) != 2 || got.Negotiations != 7 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Tasks[1].Restarts != 1 || got.Tasks[1].State != TaskRunning {
		t.Fatalf("task fields = %+v", got.Tasks[1])
	}
	got.Tasks[1].State = TaskDone
	if !got.Done() {
		t.Fatal("complete app not Done")
	}
	if (AppStatus{}).Done() {
		t.Fatal("empty app reported Done")
	}
}

// Property: NodeStatus round-trips for arbitrary numeric contents.
func TestNodeStatusProperty(t *testing.T) {
	f := func(id string, mips, ram float64, busy, ded bool) bool {
		s := NodeStatus{
			NodeID:    id,
			Platform:  resource.Platform{Arch: "amd64", OS: "linux"},
			Capacity:  resource.Vector{MIPS: mips, RAMMB: ram},
			OwnerBusy: busy,
			Dedicated: ded,
			Timestamp: time.Unix(1234, 0).UTC(),
		}
		var e orb.Encoder
		s.Encode(&e)
		got, err := DecodeNodeStatus(orb.NewDecoder(e.Bytes()))
		if err != nil {
			return false
		}
		// NaN-safe comparison.
		if mips == mips && got.Capacity.MIPS != mips {
			return false
		}
		return got.NodeID == id && got.OwnerBusy == busy && got.Dedicated == ded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []AppKind{AppSequential, AppParametric, AppBSP, AppKind(9)} {
		if k.String() == "" {
			t.Fatal("empty AppKind string")
		}
	}
	for _, s := range []TaskState{TaskPending, TaskRunning, TaskDone, TaskEvicted, TaskFailed, TaskState(9)} {
		if s.String() == "" {
			t.Fatal("empty TaskState string")
		}
	}
	for _, k := range []TaskEventKind{TaskEventDone, TaskEventEvicted, TaskEventProgress, TaskEventKind(9)} {
		if k.String() == "" {
			t.Fatal("empty TaskEventKind string")
		}
	}
}

// TestDecodeUpdateSharesRecordStrings: decoding against a record returns the
// record's own string for every identity field whose wire bytes equal it — the
// same bytes, not an equal copy — and a fresh copy for every field that
// changed, so nothing decoded aliases the request buffer.
func TestDecodeUpdateSharesRecordStrings(t *testing.T) {
	s, _, _ := updateBody()
	s.LANID = "lan-3"
	// The record's strings live apart from the literals the sender encodes.
	record := s
	for _, p := range []*string{&record.NodeID, &record.LRMRef.Endpoint.Addr, &record.LRMRef.Key, &record.Platform.Arch, &record.Platform.OS, &record.LANID} {
		*p = strings.Clone(*p)
	}
	fields := func(s *NodeStatus) map[string]string {
		return map[string]string{
			"node": s.NodeID, "addr": s.LRMRef.Endpoint.Addr, "key": s.LRMRef.Key,
			"arch": s.Platform.Arch, "os": s.Platform.OS, "lan": s.LANID,
		}
	}
	sent := s
	sent.LANID, sent.Platform.OS = "lan-4", "plan9"
	changed := map[string]bool{"lan": true, "os": true}
	var e orb.Encoder
	EncodeUpdate(&e, sent, nil)
	body := e.Bytes()
	got, _, _, err := DecodeUpdate(orb.NewDecoder(body), &record, new([MaxWindows]AvailWindow))
	if err != nil {
		t.Fatal(err)
	}
	gotFields, recFields, sentFields := fields(&got), fields(&record), fields(&sent)
	for name, v := range gotFields {
		if v != sentFields[name] {
			t.Errorf("%s = %q, want %q", name, v, sentFields[name])
		}
		shared := unsafe.StringData(v) == unsafe.StringData(recFields[name])
		if shared == changed[name] {
			t.Errorf("%s: shares the record's bytes %v, want %v", name, shared, !changed[name])
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		if start := uintptr(unsafe.Pointer(&body[0])); p >= start && p < start+uintptr(len(body)) {
			t.Errorf("%s aliases the request buffer", name)
		}
	}
}

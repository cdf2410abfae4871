package protocol

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/resource"
)

// TestEncodersAllocateOnce is the ratchet on the one-allocation rule: every
// message, encoded into a zero Encoder, costs exactly one allocation and leaves
// no spare capacity — so a size function that drifts from its Put sequence,
// short or long, fails here.
func TestEncodersAllocateOnce(t *testing.T) {
	s, events, _ := updateBody()
	withWindows := func(n int) NodeStatus {
		st := s
		st.Windows = nil
		for i := 0; i < n; i++ {
			start := s.Timestamp.Add(time.Duration(i) * time.Hour)
			st.Windows = append(st.Windows, AvailWindow{Start: start, End: start.Add(time.Minute), Confidence: 0.5})
		}
		return st
	}
	three := append(append([]TaskEvent(nil), events...), events[0])
	linux := resource.Platform{Arch: "amd64", OS: "linux"}
	topo := &TopologyRequest{Groups: []TopologyGroup{{Nodes: 2, IntraMbps: 100}, {Nodes: 2, IntraMbps: 10}}, InterMbps: 1}
	spec := func(p *resource.Platform, t *TopologyRequest) ApplicationSpec {
		return ApplicationSpec{
			Name: "render", Kind: AppBSP, NumTasks: 4, WorkPerTask: 5e6,
			Requirements: resource.Requirements{Platform: p, Min: resource.Vector{MIPS: 500}},
			Constraint:   "lan == 'lanA'", Alloc: resource.Vector{MIPS: 500, RAMMB: 32}, Topology: t,
		}
	}
	appStatus := func(n int) AppStatus {
		a := AppStatus{AppID: "app-1", Name: "sim", Kind: AppParametric, Submitted: s.Timestamp, Negotiations: 3}
		for i := 0; i < n; i++ {
			a.Tasks = append(a.Tasks, TaskStatus{TaskID: fmt.Sprintf("app-1/t%d", i), NodeID: "n1", State: TaskRunning, Work: 100})
		}
		return a
	}

	cases := map[string]func(*orb.Encoder){
		"status, no window":           withWindows(0).Encode,
		"status, 1 window":            withWindows(1).Encode,
		"status, 8 windows":           withWindows(8).Encode,
		"update, no event":            func(e *orb.Encoder) { EncodeUpdate(e, s, nil) },
		"update, 3 events":            func(e *orb.Encoder) { EncodeUpdate(e, s, three) },
		"task event":                  events[0].Encode,
		"spec, bare":                  spec(nil, nil).Encode,
		"spec, platform":              spec(&linux, nil).Encode,
		"spec, topology":              spec(nil, topo).Encode,
		"spec, platform and topology": spec(&linux, topo).Encode,
		"app status, no task":         appStatus(0).Encode,
		"app status, 1 task":          appStatus(1).Encode,
		"app status, 4 tasks":         appStatus(4).Encode,
		"reconcile":                   ReconcileRequest{NodeID: "n1", Claims: []TaskClaim{{TaskID: "t0", AppID: "a"}, {TaskID: "t1", AppID: "a"}}}.Encode,
		"departure":                   DepartureNotice{NodeID: "n1", Deadline: s.Timestamp, At: s.Timestamp}.Encode,
		"reserve request":             ReserveRequest{Holder: "app-3", Amount: resource.Vector{MIPS: 400}, TTL: time.Minute, Epoch: 2, Count: 4}.Encode,
		"reserve reply":               ReserveReply{Granted: true, ReservationID: "rsv-1", Reason: "full", More: []string{"rsv-2"}}.Encode,
		"execute request":             executeRequest().Encode,
	}
	for name, encode := range cases {
		var e orb.Encoder
		allocs := testing.AllocsPerRun(100, func() {
			e = orb.Encoder{}
			encode(&e)
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocations, want 1", name, allocs)
		}
		if n, c := e.Len(), cap(e.Bytes()); n != c {
			t.Errorf("%s: %d bytes encoded into a buffer of %d", name, n, c)
		}
	}
}

// TestDecodeUpdateAllocBudget is the ratchet on decoding an update against the
// status the receiver holds for the node, into a MaxWindows array: with the
// same identity it allocates nothing, windows or not, and each identity string
// that changed costs exactly one copy. Without a record, every identity string
// but the constant network and key is a copy. What an update still allocates
// at the GRM is the offer the trader stores and the caller's copy of the reply
// (internal/grm/testdata/alloc_budget.txt). A status with more than MaxWindows
// windows does not decode.
func TestDecodeUpdateAllocBudget(t *testing.T) {
	s, _, _ := updateBody()
	s.LANID = "lan-3"
	record := s
	for _, c := range []struct {
		name   string
		change func(*NodeStatus)
		like   *NodeStatus
		want   float64
	}{
		{"same identity, no window", func(s *NodeStatus) { s.Windows = nil }, &record, 0},
		{"same identity, 2 windows", func(s *NodeStatus) { s.Windows = append(s.Windows, s.Windows[0]) }, &record, 0},
		{"same identity, MaxWindows windows", func(s *NodeStatus) { s.Windows = slices.Repeat(s.Windows, MaxWindows) }, &record, 0},
		{"changed LAN", func(s *NodeStatus) { s.Windows, s.LANID = nil, "lan-4" }, &record, 1},
		{"changed address", func(s *NodeStatus) { s.Windows, s.LRMRef.Endpoint.Addr = nil, "10.0.0.12:7001" }, &record, 1},
		{"unknown node", func(s *NodeStatus) { s.Windows = nil }, &NodeStatus{}, 5},
		{"no record", func(s *NodeStatus) { s.Windows = nil }, nil, 5},
	} {
		sent := s
		c.change(&sent)
		var e orb.Encoder
		EncodeUpdate(&e, sent, nil)
		body := e.Bytes()
		var buf [MaxWindows]AvailWindow
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, _, err := DecodeUpdate(orb.NewDecoder(body), c.like, &buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, allocs, c.want)
		}
	}
	fragmented := s
	fragmented.Windows = slices.Repeat(s.Windows, MaxWindows+1)
	var e orb.Encoder
	EncodeUpdate(&e, fragmented, nil)
	var buf [MaxWindows]AvailWindow
	if _, _, _, err := DecodeUpdate(orb.NewDecoder(e.Bytes()), &record, &buf); err == nil {
		t.Errorf("a status with %d windows decoded", MaxWindows+1)
	}
}

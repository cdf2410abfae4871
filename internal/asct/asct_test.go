package asct

import (
	"errors"
	"strings"
	"testing"
	"time"

	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

var linux = resource.Platform{Arch: "amd64", OS: "linux"}

func TestBuilderShapes(t *testing.T) {
	spec, err := NewApplication("a").Sequential(100).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != protocol.AppSequential || spec.NumTasks != 1 {
		t.Fatalf("sequential = %+v", spec)
	}
	spec, err = NewApplication("b").Parametric(10, 50).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != protocol.AppParametric || spec.NumTasks != 10 {
		t.Fatalf("parametric = %+v", spec)
	}
	spec, err = NewApplication("c").BSP(4, 50).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != protocol.AppBSP || spec.NumTasks != 4 {
		t.Fatalf("bsp = %+v", spec)
	}
}

func TestBuilderFullSpec(t *testing.T) {
	spec, err := NewApplication("paper-example").
		BSP(100, 1e6).
		OnPlatform(linux).
		RequireMinimum(resource.Vector{MIPS: 500, RAMMB: 16}).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 32}).
		PreferFasterCPU().
		preferMoreRAM().
		Constraint("not owner_busy").
		Topology(10,
			protocol.TopologyGroup{Nodes: 50, IntraMbps: 100},
			protocol.TopologyGroup{Nodes: 50, IntraMbps: 100}).
		Checkpoint(1e5).
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Requirements.Platform == nil || spec.Requirements.Platform.OS != "linux" {
		t.Fatal("platform lost")
	}
	if !spec.Preferences.FasterCPU || !spec.Preferences.MoreRAM {
		t.Fatal("preferences lost")
	}
	if spec.Topology == nil || spec.Topology.TotalNodes() != 100 {
		t.Fatal("topology lost")
	}
	if !spec.RestartEvicted || spec.CheckpointEveryWork != 1e5 {
		t.Fatal("checkpointing lost")
	}
	if spec.Constraint != "not owner_busy" {
		t.Fatal("constraint lost")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewApplication("x").Sequential(0).Spec(); err == nil {
		t.Fatal("zero work accepted")
	}
	if _, err := NewApplication("x").BSP(4, 100).
		Topology(10, protocol.TopologyGroup{Nodes: 3, IntraMbps: 10}).Spec(); err == nil {
		t.Fatal("topology mismatch accepted")
	}
}

// testGrid wires a small in-process cluster for the Tool tests.
func testGrid(t *testing.T, nodes int) (*sim.VirtualClock, *Tool) {
	t.Helper()
	clock := sim.NewVirtualClock()
	o := orb.New()
	g := grm.New("c0", clock, o, grm.WithSchedulePeriod(15*time.Second))
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("mgr", adapter)
	if err != nil {
		t.Fatal(err)
	}
	grmRef := orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}
	g.Start()
	t.Cleanup(g.Stop)
	for i := 0; i < nodes; i++ {
		id := string(rune('a'+i)) + "-node"
		spec := resource.MachineSpec{
			Platform:  linux,
			Capacity:  resource.Vector{MIPS: 1000, RAMMB: 1024, DiskMB: 1000, NetMbps: 100},
			LANID:     "lan0",
			Dedicated: true,
		}
		n, err := node.New(id, spec, nil, ncc.Generous(), clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		na := orb.NewAdapter()
		nep, err := o.BindLoopback(id, na)
		if err != nil {
			t.Fatal(err)
		}
		selfRef := orb.ObjectRef{Endpoint: nep, Key: protocol.LRMKey}
		l := lrm.New(n, clock, o, selfRef, grmRef, lrm.WithUpdatePeriod(15*time.Second))
		if err := na.Register(protocol.LRMKey, l.Servant()); err != nil {
			t.Fatal(err)
		}
		l.Start()
		t.Cleanup(l.Stop)
		l.SendUpdate()
	}
	return clock, New(o, grmRef, clock)
}

func TestSubmitAndWait(t *testing.T) {
	clock, tool := testGrid(t, 2)
	h, err := tool.Submit(NewApplication("quick").
		Sequential(300_000). // 5 min at 1000 MIPS
		RequireMinimum(resource.Vector{MIPS: 500, RAMMB: 16}).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}).
		PreferFasterCPU())
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "" {
		t.Fatal("empty app ID")
	}
	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(st.Tasks))
	}
	// Drive virtual time from a goroutine while waitDone polls.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 120; i++ {
			select {
			case <-done:
				return
			default:
			}
			clock.Advance(time.Minute)
			time.Sleep(time.Millisecond)
		}
	}()
	st, err = h.waitDone(time.Hour, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatal("waitDone returned incomplete app")
	}
	<-done
}

func TestWaitDoneTimeout(t *testing.T) {
	clock, tool := testGrid(t, 1)
	h, err := tool.Submit(NewApplication("never").
		Sequential(1e15).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			clock.Advance(time.Minute)
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = h.waitDone(10*time.Minute, time.Minute)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	<-done
}

func TestSubmitInvalidSpecFailsFast(t *testing.T) {
	_, tool := testGrid(t, 1)
	if _, err := tool.Submit(NewApplication("bad").Sequential(0)); err == nil {
		t.Fatal("invalid spec submitted")
	}
}

func TestRenderStatus(t *testing.T) {
	st := protocol.AppStatus{
		AppID: "c0-app-1",
		Name:  "demo",
		Kind:  protocol.AppParametric,
		Tasks: []protocol.TaskStatus{
			{TaskID: "t0", NodeID: "n1", State: protocol.TaskDone, Progress: 100, Work: 100},
			{TaskID: "t1", State: protocol.TaskPending, Work: 100, Restarts: 2},
		},
	}
	out := RenderStatus(st)
	for _, want := range []string{"c0-app-1", "demo", "t0", "done", "t1", "pending", "restarts=2", "1/2 done", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderStatus missing %q:\n%s", want, out)
		}
	}
}

func TestListAppsAndCancel(t *testing.T) {
	_, tool := testGrid(t, 2)
	h1, err := tool.Submit(NewApplication("one").Sequential(1e9).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := tool.Submit(NewApplication("two").Sequential(1e9).
		Allocate(resource.Vector{MIPS: 500, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := tool.ListApps()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != h1.ID() || ids[1] != h2.ID() {
		t.Fatalf("ListApps = %v", ids)
	}
	if err := h1.Cancel(); err != nil {
		t.Fatal(err)
	}
	st, err := h1.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range st.Tasks {
		if task.State != protocol.TaskCancelled {
			t.Fatalf("state after cancel = %v", task.State)
		}
	}
	// Cancelled apps still appear in the listing (history).
	ids, _ = tool.ListApps()
	if len(ids) != 2 {
		t.Fatalf("ListApps after cancel = %v", ids)
	}
}

// TestStatusIsTheCallers: a status a handle returns is the caller's own. A
// caller that rewrites one while another goroutine polls the same handle
// races with nothing (run under -race), and the next polls still decode the
// application's IDs, as a fresh handle's first poll does.
func TestStatusIsTheCallers(t *testing.T) {
	_, tool := testGrid(t, 2)
	h, err := tool.Submit(NewApplication("mine").
		Parametric(2, 300_000).
		Allocate(resource.Vector{MIPS: 1000, RAMMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	polled := make(chan protocol.AppStatus)
	go func() {
		defer close(polled)
		for range 20 {
			st, err := h.Status()
			if err != nil {
				t.Error(err)
				return
			}
			polled <- st
		}
	}()
	for st := range polled {
		for i := range st.Tasks {
			st.Tasks[i].TaskID, st.Tasks[i].NodeID = "rewritten", "rewritten"
		}
	}
	got, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tool.Handle(h.ID()).Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tasks) != 2 || len(want.Tasks) != 2 {
		t.Fatalf("tasks: got %+v, want %+v", got.Tasks, want.Tasks)
	}
	for i := range want.Tasks {
		if got.Tasks[i] != want.Tasks[i] || got.Tasks[i].TaskID == "rewritten" {
			t.Fatalf("task %d = %+v after the caller rewrote its statuses, want %+v", i, got.Tasks[i], want.Tasks[i])
		}
	}
}

package grm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// fmtConstraint is buildConstraint as fmt.Sprintf and strings.Join rendered
// it, the text the compile cache and the experiments' goldens key on.
func fmtConstraint(spec protocol.ApplicationSpec) string {
	alloc := spec.EffectiveAlloc()
	var parts []string
	add := func(format string, args ...any) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	add("%s >= %g", PropMIPSFree, alloc.MIPS)
	add("%s >= %g", PropRAMFree, alloc.RAMMB)
	if alloc.DiskMB > 0 {
		add("%s >= %g", PropDiskFree, alloc.DiskMB)
	}
	if alloc.NetMbps > 0 {
		add("%s >= %g", PropNetFree, alloc.NetMbps)
	}
	min := spec.Requirements.Min
	if min.MIPS > 0 {
		add("%s >= %g", PropMIPSTotal, min.MIPS)
	}
	if min.RAMMB > 0 {
		add("ram_total >= %g", min.RAMMB)
	}
	if min.DiskMB > 0 {
		add("disk_total >= %g", min.DiskMB)
	}
	if min.NetMbps > 0 {
		add("net_total >= %g", min.NetMbps)
	}
	if p := spec.Requirements.Platform; p != nil {
		add("%s == '%s'", PropOS, p.OS)
		add("%s == '%s'", PropArch, p.Arch)
	}
	if spec.Constraint != "" {
		add("(%s)", spec.Constraint)
	}
	return strings.Join(parts, " and ")
}

// TestBuildConstraintMatchesFmt: buildConstraint writes the text the fmt-based
// rendering wrote, byte for byte, for every optional clause and for numbers
// that take %g's exponent and shortest-digit forms.
func TestBuildConstraintMatchesFmt(t *testing.T) {
	linux := &resource.Platform{Arch: "amd64", OS: "linux"}
	long := strings.Repeat("lan == 'lan07' or ", 20) + "owner_busy == false"
	specs := map[string]protocol.ApplicationSpec{
		"alloc only":            {Alloc: resource.Vector{MIPS: 900, RAMMB: 256}},
		"minimum as alloc":      {Requirements: resource.Requirements{Min: resource.Vector{MIPS: 0.1, RAMMB: 2048}}},
		"every clause":          {Alloc: resource.Vector{MIPS: 1e-7, RAMMB: 1e21, DiskMB: 123456789, NetMbps: 0.1}, Requirements: resource.Requirements{Min: resource.Vector{MIPS: 2048, RAMMB: 1e-7, DiskMB: 0.1, NetMbps: 123456789}, Platform: linux}, Constraint: "lan == 'lan03'"},
		"disk and net":          {Alloc: resource.Vector{MIPS: 123456789, RAMMB: 0.1, DiskMB: 2048, NetMbps: 1e21}},
		"platform only":         {Alloc: resource.Vector{MIPS: 500, RAMMB: 64}, Requirements: resource.Requirements{Platform: &resource.Platform{Arch: "arm64", OS: "windows"}}},
		"minimum beside alloc":  {Alloc: resource.Vector{MIPS: 1, RAMMB: 1}, Requirements: resource.Requirements{Min: resource.Vector{MIPS: 1e21, RAMMB: 123456789}}},
		"long constraint":       {Alloc: resource.Vector{MIPS: 900, RAMMB: 256, DiskMB: 1e-7}, Constraint: long},
		"zero alloc":            {},
		"negative, long digits": {Alloc: resource.Vector{MIPS: -0.5, RAMMB: 3.0000000000000004}},
		"disk and net minimum":  {Alloc: resource.Vector{MIPS: 900, RAMMB: 256}, Requirements: resource.Requirements{Min: resource.Vector{MIPS: 500, RAMMB: 16, DiskMB: 4096, NetMbps: 1e-7}}},
	}
	for name, spec := range specs {
		if got, want := buildConstraint(spec), fmtConstraint(spec); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestAppStatusReplyIsAppStatusEncoded: the servant writes an AppStatus reply
// from the GRM's records without building the status, and the bytes it writes
// are protocol.AppStatus.Encode of what AppStatus returns — for a pending
// task, running ones, a done one and one restarted after an eviction.
func TestAppStatusReplyIsAppStatusEncoded(t *testing.T) {
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	defer g.Stop()
	id, err := g.Submit(protocol.ApplicationSpec{
		Name: "mixed", Kind: protocol.AppParametric, NumTasks: 4, WorkPerTask: 100,
		Alloc: resource.Vector{MIPS: 100, RAMMB: 16}, RestartEvicted: true, CheckpointEveryWork: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply := func() []byte {
		var req orb.Encoder
		req.PutString(id)
		e, err := g.Servant().Dispatch(protocol.OpAppStatus, orb.NewDecoder(req.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer orb.PutEncoder(e)
		return bytes.Clone(e.Bytes())
	}
	check := func(stage string) {
		t.Helper()
		st, err := g.AppStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		var want orb.Encoder
		st.Encode(&want)
		if got := reply(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: the reply is\n%x\nAppStatus encodes to\n%x", stage, got, want.Bytes())
		}
	}
	check("all pending")

	// No node has reported, so the tasks are pending; record three as running
	// on two nodes, as placement does, then finish one and evict another.
	g.mu.Lock()
	app := g.apps[id]
	tasks := app.tasks
	g.placeLocked(app, nodeGrant{nodeID: "node-a", holds: []string{"h0", "h1"}, tasks: tasks[:2]})
	g.placeLocked(app, nodeGrant{nodeID: "node-bb", holds: []string{"h2"}, tasks: tasks[2:3]})
	g.mu.Unlock()
	check("three running")

	g.HandleNotify(protocol.TaskEvent{Kind: protocol.TaskEventProgress, AppID: id, TaskID: tasks[0].id, NodeID: "node-a", Progress: 42})
	g.HandleNotify(protocol.TaskEvent{Kind: protocol.TaskEventDone, AppID: id, TaskID: tasks[1].id, NodeID: "node-a", Progress: 100, At: clock.Now().Add(time.Minute)})
	check("one done")

	g.HandleNotify(protocol.TaskEvent{Kind: protocol.TaskEventEvicted, AppID: id, TaskID: tasks[2].id, NodeID: "node-bb", Progress: 25})
	if st, _ := g.AppStatus(id); st.Tasks[2].Restarts != 1 {
		t.Fatalf("the evicted task was not restarted: %+v", st.Tasks[2])
	}
	check("one restarted")

	var req orb.Encoder
	req.PutString(id + "-ghost")
	if _, err := g.Servant().Dispatch(protocol.OpAppStatus, orb.NewDecoder(req.Bytes())); err == nil {
		t.Fatal("an unknown application's status was served")
	}
	if _, err := g.Servant().Dispatch(protocol.OpAppStatus, orb.NewDecoder(nil)); !orb.IsCode(err, orb.CodeMarshal) {
		t.Fatalf("an empty request: err = %v, want a marshal error", err)
	}
}

package grm_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/testutil/allocbudget"
)

// tcpGrid is the grid as the binaries deploy it: a GRM behind an orb.Server on
// 127.0.0.1 and nodes LRMs, each on its own ORB and listener, registered by a
// first SendUpdate. Two nodes share a LAN and a node has two taskAlloc slots.
func tcpGrid(b testing.TB, nodes int) (*grm.GRM, *sim.VirtualClock, orb.ObjectRef, []*lrm.LRM) {
	clock := sim.NewVirtualClock()
	grmORB := orb.New()
	b.Cleanup(grmORB.Close)
	g := grm.New("bench", clock, grmORB)
	b.Cleanup(g.Stop)
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		b.Fatal(err)
	}
	srv, err := grmORB.ListenTCP("127.0.0.1:0", adapter)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })

	lrms := make([]*lrm.LRM, nodes)
	for i := range lrms {
		o := orb.New()
		b.Cleanup(o.Close)
		spec := resource.MachineSpec{
			Platform:  linux,
			Capacity:  resource.Vector{MIPS: float64(2000 + i), RAMMB: 2048, DiskMB: 50000, NetMbps: 1000},
			LANID:     fmt.Sprintf("lan%02d", i/2),
			Dedicated: true,
		}
		n, err := node.New(fmt.Sprintf("n%02d", i), spec, nil, ncc.Generous(), clock.Now())
		if err != nil {
			b.Fatal(err)
		}
		lrmAdapter := orb.NewAdapter()
		lrmSrv, err := o.ListenTCP("127.0.0.1:0", lrmAdapter)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = lrmSrv.Close() })
		lrms[i] = lrm.New(n, clock, o, lrmSrv.Ref(protocol.LRMKey), srv.Ref(protocol.GRMKey))
		if err := lrmAdapter.Register(protocol.LRMKey, lrms[i].Servant()); err != nil {
			b.Fatal(err)
		}
		lrms[i].SendUpdate() // dial, register
	}
	if got := g.KnownNodes(); got != nodes {
		b.Fatalf("GRM knows %d nodes, want %d", got, nodes)
	}
	return g, clock, srv.Ref(protocol.GRMKey), lrms
}

var taskAlloc = resource.Vector{MIPS: 900, RAMMB: 256}

// BenchmarkTCPUpdateSweep is the Information Update on that grid: 32 LRMs
// taking turns to SendUpdate — one op is one update, the whole path from
// LRM.Status through the socket to the trader upsert and back. It is the
// benchmark's tcp_lifecycle_32 update sweep in isolation, and the one that
// shows what the OpUpdate servant costs the server per request:
// `make profile-tcp-update` profiles it.
func BenchmarkTCPUpdateSweep(b *testing.B) {
	const nodes = 32
	_, _, _, lrms := tcpGrid(b, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lrms[i%nodes].SendUpdate()
	}
	b.StopTimer()
	var sent int
	for _, l := range lrms {
		sent += l.Stats().UpdatesSent
	}
	if sent != b.N+nodes {
		b.Fatalf("%d of %d updates accepted", sent-nodes, b.N)
	}
}

// BenchmarkTCPGangPlacement is one BSP application of four processes on a LAN
// of two two-slot nodes, from Submit to Done: tcp_lifecycle_32's most
// expensive lifecycle in isolation. One op is one Submit (one Reserve and one
// Execute per node), a tick of the clock, the two updates that carry the
// completions and one status poll: 8 round trips, 13 before negotiation was per
// node.
func BenchmarkTCPGangPlacement(b *testing.B) {
	g, clock, grmRef, lrms := tcpGrid(b, 2)
	tool := orb.New()
	b.Cleanup(tool.Close)
	client := protocol.NewGRMClient(tool, grmRef)
	spec := protocol.ApplicationSpec{
		Name:        "gang",
		Kind:        protocol.AppBSP,
		NumTasks:    4,
		WorkPerTask: 9, // MI: 10 ms at the allocated rate
		Alloc:       taskAlloc,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := client.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		clock.Advance(20 * time.Millisecond)
		for _, l := range lrms {
			l.SendUpdate()
		}
		if st, err := client.AppStatus(id, nil); err != nil || !st.Done() {
			b.Fatalf("gang %s not done after its updates: %+v, %v", id, st, err)
		}
	}
	b.StopTimer()
	if st := g.Stats(); st.TasksDone != 4*b.N || st.NegotiationRounds != 2*b.N {
		b.Fatalf("%d tasks done in %d Reserves over %d gangs", st.TasksDone, st.NegotiationRounds, b.N)
	}
}

// lifecycleMix is tcp_lifecycle_32's composition of eight applications: five
// sequential, two parametric×4 and one BSP×4.
var lifecycleMix = [8]protocol.AppKind{
	protocol.AppSequential, protocol.AppSequential, protocol.AppSequential,
	protocol.AppSequential, protocol.AppSequential,
	protocol.AppParametric, protocol.AppParametric, protocol.AppBSP,
}

// tcpLifecycles is tcp_lifecycle_32's lifecycle on a tcpGrid of eight two-node
// LANs: it returns a function that runs lifecycleMix once, application k
// pinned to LAN k, each from Submit through the ASCT to Done. A lifecycle is
// Submit, a status poll, a tick of the clock, SyncTasks and SendUpdate on each
// LRM that hosts one of its tasks, and a closing poll that must find it done.
func tcpLifecycles(tb testing.TB) func() {
	const nodes = 2 * len(lifecycleMix)
	_, clock, grmRef, lrms := tcpGrid(tb, nodes)
	tool := orb.New()
	tb.Cleanup(tool.Close)
	ascts := asct.New(tool, grmRef, clock)
	byNode := make(map[string]*lrm.LRM, nodes)
	for _, l := range lrms {
		byNode[l.Node().ID()] = l
	}
	var builders [len(lifecycleMix)]*asct.Builder
	for k, kind := range lifecycleMix {
		b := asct.NewApplication(fmt.Sprintf("%s-%d", kind, k)).
			Allocate(taskAlloc).
			Constraint(fmt.Sprintf("lan == 'lan%02d'", k))
		switch kind {
		case protocol.AppParametric:
			b.Parametric(4, 9)
		case protocol.AppBSP:
			b.BSP(4, 9)
		default:
			b.Sequential(9) // MI: 10 ms at the allocated rate
		}
		builders[k] = b
	}
	return func() {
		for _, b := range builders {
			h, err := ascts.Submit(b)
			if err != nil {
				tb.Fatal(err)
			}
			st, err := h.Status()
			if err != nil {
				tb.Fatal(err)
			}
			clock.Advance(20 * time.Millisecond)
			var last *lrm.LRM
			for _, task := range st.Tasks {
				// Tasks are placed node by node, so one node's are adjacent.
				if l := byNode[task.NodeID]; l != nil && l != last {
					l.SyncTasks()
					l.SendUpdate()
					last = l
				}
			}
			if st, err = h.Status(); err != nil || !st.Done() {
				tb.Fatalf("%s not done after its updates: %+v, %v", h.ID(), st, err)
			}
		}
	}
}

// BenchmarkTCPLifecycle is tcp_lifecycle_32's application lifecycle in
// isolation: one op is lifecycleMix's eight lifecycles over real TCP. Its
// allocations are gated by the lifecycle-tcp-bytes row of
// testdata/alloc_budget.txt.
func BenchmarkTCPLifecycle(b *testing.B) {
	run := tcpLifecycles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestTCPLifecycleAllocBudget holds BenchmarkTCPLifecycle to the
// lifecycle-tcp-bytes row of testdata/alloc_budget.txt: bytes per lifecycle,
// averaged over 256 runs of the mix after 8 that dial every connection and
// size every buffer the grid reuses. It runs at GOMAXPROCS 2, the row's: the
// ORB's encoder and reply pools are kept per P and refilled after each collection, so the
// bytes a pass pays for refills grow with the P count (about 2 B a lifecycle
// from 1 to 2, 4 more at 8).
func TestTCPLifecycleAllocBudget(t *testing.T) {
	if allocbudget.Race {
		t.Skip("the ORB's pooled encoders and replies allocate afresh under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const warm, runs = 8, 256
	path := filepath.Join("testdata", "alloc_budget.txt")
	run := tcpLifecycles(t)
	for range warm {
		run()
	}
	for _, row := range allocbudget.Parse(t, path) {
		if row.Name != "lifecycle-tcp-bytes" {
			continue
		}
		got := float64(allocbudget.Bytes(func() {
			for range runs {
				run()
			}
		})) / float64(runs*len(lifecycleMix))
		if got > row.Budget {
			t.Fatalf("%s: a TCP lifecycle allocates %.1f B, budget %.0f", path, got, row.Budget)
		}
		t.Logf("%s: a TCP lifecycle allocates %.1f B, budget %.0f", path, got, row.Budget)
		return
	}
	t.Fatalf("%s: no lifecycle-tcp-bytes row", path)
}

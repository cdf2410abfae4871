package grm_test

import (
	"fmt"
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

// tcpGrid is the grid as the binaries deploy it: a GRM behind an orb.Server on
// 127.0.0.1 and nodes LRMs, each on its own ORB and listener, registered by a
// first SendUpdate. Two nodes share a LAN and a node has two taskAlloc slots.
func tcpGrid(b *testing.B, nodes int) (*grm.GRM, *sim.VirtualClock, orb.ObjectRef, []*lrm.LRM) {
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
		if st, err := client.AppStatus(id); err != nil || !st.Done() {
			b.Fatalf("gang %s not done after its updates: %+v, %v", id, st, err)
		}
	}
	b.StopTimer()
	if st := g.Stats(); st.TasksDone != 4*b.N || st.NegotiationRounds != 2*b.N {
		b.Fatalf("%d tasks done in %d Reserves over %d gangs", st.TasksDone, st.NegotiationRounds, b.N)
	}
}

package grm_test

import (
	"fmt"
	"testing"

	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// BenchmarkTCPUpdateSweep is the Information Update as the binaries deploy
// it: a GRM behind an orb.Server on 127.0.0.1 and 32 LRMs, each on its own
// ORB and connection, taking turns to SendUpdate — one op is one update, the
// whole path from LRM.Status through the socket to the trader upsert and
// back. It is the benchmark's tcp_lifecycle_32 update sweep in isolation, and
// the one that shows what the OpUpdate servant costs the server per request:
// `make profile-tcp-update` profiles it.
func BenchmarkTCPUpdateSweep(b *testing.B) {
	const nodes = 32
	clock := sim.NewVirtualClock()
	grmORB := orb.New()
	defer grmORB.Close()
	g := grm.New("bench", clock, grmORB)
	defer g.Stop()
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		b.Fatal(err)
	}
	srv, err := grmORB.ListenTCP("127.0.0.1:0", adapter)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	lrms := make([]*lrm.LRM, nodes)
	for i := range lrms {
		o := orb.New()
		defer o.Close()
		spec := resource.MachineSpec{
			Platform:  linux,
			Capacity:  resource.Vector{MIPS: float64(2000 + i), RAMMB: 2048, DiskMB: 50000, NetMbps: 1000},
			LANID:     fmt.Sprintf("lan%02d", i/2),
			Dedicated: true,
		}
		id := fmt.Sprintf("n%02d", i)
		n, err := node.New(id, spec, nil, ncc.Generous(), clock.Now())
		if err != nil {
			b.Fatal(err)
		}
		// Nothing is submitted, so the GRM never calls an LRM back: the
		// reference only has to be distinct, it is the trader's offer key.
		self := orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetTCP, Addr: fmt.Sprintf("127.0.0.1:%d", 1+i)}, Key: protocol.LRMKey}
		lrms[i] = lrm.New(n, clock, o, self, srv.Ref(protocol.GRMKey))
		lrms[i].SendUpdate() // dial, register
	}
	if got := g.KnownNodes(); got != nodes {
		b.Fatalf("GRM knows %d nodes, want %d", got, nodes)
	}
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

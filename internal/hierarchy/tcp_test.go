package hierarchy

import (
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

// TestTwoClustersOverTCP runs a complete two-cluster deployment over real
// TCP sockets — cluster managers, LRM agents, hierarchy links and a routed
// submission — the wire-level path the cmd/ binaries use.
func TestTwoClustersOverTCP(t *testing.T) {
	clock := sim.RealClock{}
	o := orb.New()
	defer o.Close()

	type tcpCluster struct {
		g    *grm.GRM
		h    *Node
		srv  *orb.Server
		lrms []*lrm.LRM
	}

	mkCluster := func(id string, nodes int, mips float64) *tcpCluster {
		t.Helper()
		g := grm.New(id, clock, o, grm.WithSchedulePeriod(200*time.Millisecond))
		h := NewNode(g, o)
		adapter := orb.NewAdapter()
		if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
			t.Fatal(err)
		}
		if err := adapter.Register(ObjectKey, h.Servant()); err != nil {
			t.Fatal(err)
		}
		srv, err := o.ListenTCP("127.0.0.1:0", adapter)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		h.SetSelfRef(srv.Ref(ObjectKey))
		g.Start()
		t.Cleanup(g.Stop)

		c := &tcpCluster{g: g, h: h, srv: srv}
		for i := 0; i < nodes; i++ {
			nodeID := id + "-n" + string(rune('0'+i))
			spec := resource.MachineSpec{
				Platform:  resource.Platform{Arch: "amd64", OS: "linux"},
				Capacity:  resource.Vector{MIPS: mips, RAMMB: 1024, DiskMB: 1000, NetMbps: 100},
				LANID:     id + "-lan",
				Dedicated: true,
			}
			n, err := node.New(nodeID, spec, nil, ncc.Generous(), clock.Now())
			if err != nil {
				t.Fatal(err)
			}
			na := orb.NewAdapter()
			nsrv, err := o.ListenTCP("127.0.0.1:0", na)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = nsrv.Close() })
			l := lrm.New(n, clock, o, nsrv.Ref(protocol.LRMKey), srv.Ref(protocol.GRMKey),
				lrm.WithUpdatePeriod(200*time.Millisecond))
			if err := na.Register(protocol.LRMKey, l.Servant()); err != nil {
				t.Fatal(err)
			}
			l.Start()
			t.Cleanup(l.Stop)
			l.SendUpdate()
			c.lrms = append(c.lrms, l)
		}
		return c
	}

	small := mkCluster("small", 1, 200)
	big := mkCluster("big", 3, 2000)
	small.h.AddChild("big", big.srv.Ref(ObjectKey))
	big.h.SetParent(small.srv.Ref(ObjectKey))

	// Remote summary over TCP covers both clusters.
	client := NewClient(o, small.srv.Ref(ObjectKey))
	sum, err := client.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Clusters != 2 || sum.Nodes != 4 {
		t.Fatalf("summary over TCP = %+v", sum)
	}

	// A demanding job submitted at the small cluster routes to the big one.
	res, err := client.Submit(protocol.ApplicationSpec{
		Name:        "tcp-routed",
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 1000, // tiny: finishes on the first sync
		Alloc:       resource.Vector{MIPS: 1500, RAMMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterID != "big" || res.Hops != 1 {
		t.Fatalf("routed to %s with %d hops", res.ClusterID, res.Hops)
	}

	// The app completes in real time (LRM syncs ride the 200ms updates).
	grmClient := protocol.NewGRMClient(o, big.srv.Ref(protocol.GRMKey))
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := grmClient.AppStatus(res.AppID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("app not done over TCP: %+v", st.Tasks)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

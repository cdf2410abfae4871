package grm

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// TestReserveFedUpdateKeepsCandidates: every LRM refuses its Reserve, but first
// feeds the GRM two Information Updates for its own node with new figures, so
// each candidate's node upserts its offer twice while negotiate still reads
// the candidates it ranked — through the cursor, after the walk that found
// them. Every offer the cursor returns must read as it did before the first
// update, and so must every one it returned before; the fleet has reported
// twice beforehand, so the trader has retired offers an upsert would rewrite.
func TestReserveFedUpdateKeepsCandidates(t *testing.T) {
	const nodes = 12
	o := orb.New()
	g := New("hold", sim.NewVirtualClock(), o)
	defer o.Close()
	defer g.Stop()
	fleet := make([]protocol.NodeStatus, nodes)
	reserves := 0
	for i := range fleet {
		mux := orb.NewOpMux().Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			reserves++
			for range 2 {
				fleet[i].GridFree.MIPS++
				if _, err := g.handleUpdate(updateFrame(&fleet[i])); err != nil {
					t.Error(err)
				}
			}
			var e orb.Encoder
			protocol.ReserveReply{}.Encode(&e)
			return &e, nil
		})
		adapter := orb.NewAdapter()
		if err := adapter.Register("lrm", mux); err != nil {
			t.Fatal(err)
		}
		ep, err := o.BindLoopback(fmt.Sprintf("lrm%d", i), adapter)
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = protocol.NodeStatus{
			NodeID:    fmt.Sprintf("n%02d", i),
			LRMRef:    orb.ObjectRef{Endpoint: ep, Key: "lrm"},
			Platform:  missPlatforms[0],
			Dedicated: true,
			Capacity:  resource.Vector{MIPS: 2000, RAMMB: 1024},
			GridFree:  resource.Vector{MIPS: float64(1000 + 10*i), RAMMB: 512},
			Timestamp: g.clock.Now(),
		}
	}
	for round := range 3 {
		for i := range fleet {
			fleet[i].GridFree.MIPS += float64(round)
			if _, err := g.handleUpdate(updateFrame(&fleet[i])); err != nil {
				t.Fatal(err)
			}
		}
	}

	spec := protocol.ApplicationSpec{Alloc: resource.Vector{MIPS: 100, RAMMB: 64}}
	app := &appInfo{id: "app", spec: spec, constraint: buildConstraint(spec)}
	mc := g.newMatchCtx()
	defer mc.close()
	ranked, err := mc.candidates(app)
	if err != nil || ranked.n != nodes {
		t.Fatalf("%d candidates, %v; want %d", ranked.n, err, nodes)
	}
	before := map[*trading.Offer]map[string]constraint.Value{}
	for _, k := range ranked.r.keys {
		before[k.offer] = maps.Collect(k.offer.Properties.All())
	}
	c := ranked.best()
	var returned []*trading.Offer
	next := func() *trading.Offer {
		o := c.next()
		if o != nil {
			returned = append(returned, o)
		}
		for _, r := range returned {
			if got := maps.Collect(r.Properties.All()); !reflect.DeepEqual(got, before[r]) {
				t.Fatalf("candidate %v changed after %d Reserves: %v, was %v", strProp(r, fieldNode), reserves, got, before[r])
			}
		}
		return o
	}
	if placed := g.negotiate(app, []*taskInfo{{id: "app.0"}}, next, false, ""); placed != 0 {
		t.Fatalf("placed %d tasks on LRMs that refuse", placed)
	}
	if reserves != DefaultMaxAttempts {
		t.Fatalf("%d Reserves, want %d: the test means every attempt to feed updates", reserves, DefaultMaxAttempts)
	}
}

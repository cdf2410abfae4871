package grm

import (
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// TestStatusOfferRoundTrip is the guard on exportStatusOffer filling its
// record by position: one status with a distinct value in every field goes
// in, and every Prop* name must read back the field it documents.
func TestStatusOfferRoundTrip(t *testing.T) {
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	defer g.Stop()
	g.mu.Lock()
	g.epoch = 4
	g.mu.Unlock()
	now := clock.Now()
	s := protocol.NodeStatus{
		NodeID:        "node-7",
		LRMRef:        orb.ObjectRef{Endpoint: orb.Endpoint{Net: "tcp", Addr: "10.0.0.7:9000"}, Key: "lrm"},
		Platform:      resource.Platform{Arch: "riscv", OS: "plan9"},
		LANID:         "lan-3",
		Capacity:      resource.Vector{MIPS: 1001, RAMMB: 1002, DiskMB: 1003, NetMbps: 1004},
		GridFree:      resource.Vector{MIPS: 501, RAMMB: 502, DiskMB: 503, NetMbps: 504},
		Dedicated:     true,
		OwnerBusy:     false,
		PredictedIdle: 1234 * time.Second,
		Timestamp:     now.Add(-5 * time.Second),
		Windows:       []protocol.AvailWindow{{Start: now.Add(-time.Hour), End: now.Add(2 * time.Hour), Confidence: 0.75}},
	}
	if epoch, err := g.handleUpdate(updateFrame(&s)); err != nil || epoch != 4 {
		t.Fatalf("handleUpdate = %d, %v", epoch, err)
	}
	all := g.Trader().All("")
	if len(all) != 1 {
		t.Fatalf("trader holds %d offers, want 1", len(all))
	}
	offer := all[0]
	if offer.Ref != s.LRMRef {
		t.Errorf("offer ref %v, want %v", offer.Ref, s.LRMRef)
	}
	want := constraint.Properties{
		PropNode:          constraint.String("node-7"),
		PropMIPSTotal:     constraint.Number(1001),
		"ram_total":       constraint.Number(1002),
		"disk_total":      constraint.Number(1003),
		"net_total":       constraint.Number(1004),
		PropMIPSFree:      constraint.Number(501),
		PropRAMFree:       constraint.Number(502),
		PropDiskFree:      constraint.Number(503),
		PropNetFree:       constraint.Number(504),
		PropLAN:           constraint.String("lan-3"),
		PropOS:            constraint.String("plan9"),
		PropArch:          constraint.String("riscv"),
		PropDedicated:     constraint.Bool(true),
		PropOwnerBusy:     constraint.Bool(false),
		PropPredictedIdle: constraint.Number(1234),
		PropWindowEnd:     constraint.Number(float64(now.Add(2 * time.Hour).Unix())),
		PropWindowConf:    constraint.Number(0.75),
		PropUpdatedUnix:   constraint.Number(float64(now.Add(-5 * time.Second).Unix())),
		PropMgrEpoch:      constraint.Number(4),
	}
	if offer.Properties.Len() != len(want) {
		t.Errorf("offer has %d properties, want %d", offer.Properties.Len(), len(want))
	}
	for name, v := range want {
		if got, ok := offer.Properties.Property(name); !ok || got != v {
			t.Errorf("%s = %#v (present %v), want %#v", name, got, ok, v)
		}
	}
	// The package's own fields read the same record.
	if strProp(&offer, fieldNode) != "node-7" || strProp(&offer, fieldLAN) != "lan-3" ||
		numProp(&offer, fieldMIPSFree) != 501 || numProp(&offer, fieldNetFree) != 504 ||
		!boolProp(&offer, fieldDedicated) || boolProp(&offer, fieldOwnerBusy) {
		t.Error("the GRM's fields do not read the properties they name")
	}
}

// TestIdentityChangeReachesOffer: the OpUpdate handler decodes a node's
// identity strings against its record's, so an update that changes one of them
// under the same node ID must still carry the new value into the record and
// the offer — one field at a time and all at once, and back again.
func TestIdentityChangeReachesOffer(t *testing.T) {
	g, clock, fleet := sweepFixture(t, 1)
	s := fleet[0]
	for _, step := range []struct {
		name          string
		lan, os, arch string
	}{
		{"lan", "lan-b", "linux", "amd64"},
		{"os", "lan-b", "plan9", "amd64"},
		{"arch", "lan-b", "plan9", "riscv"},
		{"all back", "", "linux", "amd64"},
		{"all at once", "lan-c", "freebsd", "arm64"},
		{"unchanged", "lan-c", "freebsd", "arm64"},
	} {
		s.LANID, s.Platform.OS, s.Platform.Arch = step.lan, step.os, step.arch
		heartbeat(t, g, clock, s)
		all := g.Trader().All("")
		if len(all) != 1 {
			t.Fatalf("%s: the trader holds %d offers, want 1", step.name, len(all))
		}
		for name, want := range map[string]string{PropLAN: step.lan, PropOS: step.os, PropArch: step.arch} {
			if got, _ := all[0].Properties.Property(name); got != constraint.String(want) {
				t.Errorf("%s: the offer's %s is %#v, want %q", step.name, name, got, want)
			}
		}
		g.mu.Lock()
		rec := g.nodes[s.NodeID].status
		g.mu.Unlock()
		if rec.LANID != step.lan || rec.Platform != s.Platform {
			t.Errorf("%s: the record holds lan %q, platform %v; want %q, %v", step.name, rec.LANID, rec.Platform, step.lan, s.Platform)
		}
	}
}

// TestStatusSchemaFitsOffer: a trader offer holds a fixed number of property
// values inline, and an export of more is a bug in the exporter that panics.
// The GRM's node offer, a record of statusSchema, must fit: a node's first
// update exports it by reference (Export) and its second upserts it through
// the node's place (Upsert), and neither may panic.
func TestStatusSchemaFitsOffer(t *testing.T) {
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	defer g.Stop()
	s := protocol.NodeStatus{
		NodeID:    "node-1",
		LRMRef:    orb.ObjectRef{Endpoint: orb.Endpoint{Net: "tcp", Addr: "10.0.0.1:9000"}, Key: "lrm"},
		Capacity:  resource.Vector{MIPS: 1000, RAMMB: 1024},
		GridFree:  resource.Vector{MIPS: 1000, RAMMB: 1024},
		Timestamp: clock.Now(),
	}
	for _, write := range []string{"Export", "Upsert"} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s of the node offer panicked, statusSchema outgrowing a trader offer: %v", write, r)
				}
			}()
			if _, err := g.handleUpdate(updateFrame(&s)); err != nil {
				t.Fatalf("%s: %v", write, err)
			}
		}()
		clock.Advance(time.Second)
		s.Timestamp = clock.Now()
	}
	if all := g.Trader().All(""); len(all) != 1 || all[0].Seq() != 2 {
		t.Fatalf("the trader holds %v: want node-1's second offer alone", all)
	}
}

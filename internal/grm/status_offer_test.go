package grm

import (
	"encoding/hex"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// statusOfferWire is the trader's wire encoding of the offer the status in
// TestStatusOfferRoundTrip exports, captured from the map-backed offers this
// repo had before records (commit 79d7535): names leave in sorted order
// whatever order statusSchema declares them in.
const statusOfferWire = "000000076f666665722d310000000a4e6f6465537461747573000000037463700000000d31302e302e302e373a39303030000000036c726d00000000695aff5a0000000000000013000000046172636802000000057269736376000000096465646963617465640301000000096469736b5f6672656501407f7000000000000000000a6469736b5f746f74616c01408f580000000000000000036c616e02000000056c616e2d33000000096d67725f65706f6368014010000000000000000000096d6970735f6672656501407f5000000000000000000a6d6970735f746f74616c01408f480000000000000000086e65745f6672656501407f800000000000000000096e65745f746f74616c01408f600000000000000000046e6f646502000000066e6f64652d37000000026f730200000005706c616e390000000a6f776e65725f627573790300000000107072656469637465645f69646c655f730140934800000000000000000872616d5f6672656501407f6000000000000000000972616d5f746f74616c01408f5000000000000000000c757064617465645f756e69780141da56bfbec000000000000b77696e646f775f636f6e66013fe80000000000000000000f77696e646f775f656e645f756e69780141da56c6c8000000"

// captureInvoker keeps the argument of the last invocation.
type captureInvoker struct{ arg []byte }

func (c *captureInvoker) Invoke(_ orb.ObjectRef, _ string, arg []byte) ([]byte, error) {
	c.arg = append([]byte(nil), arg...)
	var e orb.Encoder
	e.PutString("offer-1")
	return e.Bytes(), nil
}

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
	if epoch, err := g.HandleUpdate(&s); err != nil || epoch != 4 {
		t.Fatalf("HandleUpdate = %d, %v", epoch, err)
	}
	all := g.Trader().All(NodeStatusType)
	if len(all) != 1 {
		t.Fatalf("trader holds %d offers, want 1", len(all))
	}
	offer := all[0]
	if offer.Ref != s.LRMRef || !offer.Expires.Equal(now.Add(g.offerTTL)) {
		t.Errorf("offer ref %v expires %v", offer.Ref, offer.Expires)
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

	var inv captureInvoker
	if _, err := trading.NewClient(&inv, orb.ObjectRef{}).Export(offer); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(inv.arg); got != statusOfferWire {
		t.Errorf("offer encodes as\n%s\nwant\n%s", got, statusOfferWire)
	}
}

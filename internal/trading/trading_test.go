package trading

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

func nodeRef(i int) orb.ObjectRef {
	return orb.ObjectRef{
		Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("node-%d", i)},
		Key:      "lrm",
	}
}

func nodeOffer(i int, mips, ram float64) Offer {
	return Offer{
		ServiceType: "NodeStatus",
		Ref:         nodeRef(i),
		Properties: constraint.Properties{
			"mips": constraint.Number(mips),
			"ram":  constraint.Number(ram),
			"os":   constraint.String("linux"),
		}.Record(),
	}
}

func TestExportSelectWithdraw(t *testing.T) {
	s := NewService(nil)
	id1, err := s.Export(nodeOffer(1, 1000, 512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Export(nodeOffer(2, 400, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Export(Offer{}); err == nil {
		t.Fatal("typeless offer accepted")
	}

	offers, err := s.Select(Query{ServiceType: "NodeStatus", Constraint: "mips >= 500"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref != nodeRef(1) {
		t.Fatalf("Select = %v", offers)
	}
	if err := s.Withdraw(id1); err != nil {
		t.Fatal(err)
	}
	if err := s.Withdraw(id1); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("double Withdraw err = %v", err)
	}
	offers, _ = s.Select(Query{ServiceType: "NodeStatus"})
	if len(offers) != 1 || offers[0].Ref != nodeRef(2) {
		t.Fatalf("after withdraw = %v", offers)
	}
}

func TestSelectPreferenceRanksDescending(t *testing.T) {
	s := NewService(nil)
	for i, mips := range []float64{300, 900, 600} {
		if _, err := s.Export(nodeOffer(i, mips, 512)); err != nil {
			t.Fatal(err)
		}
	}
	offers, err := s.Select(Query{ServiceType: "NodeStatus", Preference: "mips"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{900, 600, 300}
	for i, o := range offers {
		got, _ := o.Properties.Get("mips").AsNumber()
		if got != want[i] {
			t.Fatalf("rank %d = %v MIPS, want %v", i, got, want[i])
		}
	}
}

func TestSelectLimit(t *testing.T) {
	s := NewService(nil)
	for i := 0; i < 10; i++ {
		if _, err := s.Export(nodeOffer(i, float64(100*i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	offers, err := s.Select(Query{ServiceType: "NodeStatus", Preference: "mips", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 3 {
		t.Fatalf("Limit ignored: %d offers", len(offers))
	}
	got, _ := offers[0].Properties.Get("mips").AsNumber()
	if got != 900 {
		t.Fatalf("best offer = %v MIPS", got)
	}
}

func TestSelectMissingPropertyFailsConstraintNotQuery(t *testing.T) {
	s := NewService(nil)
	if _, err := s.Export(nodeOffer(1, 1000, 512)); err != nil {
		t.Fatal(err)
	}
	// Offer without "gpu": constraint referencing gpu simply doesn't match.
	offers, err := s.Select(Query{ServiceType: "NodeStatus", Constraint: "gpu >= 1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 0 {
		t.Fatalf("offers = %v", offers)
	}
}

func TestSelectBadExpressions(t *testing.T) {
	s := NewService(nil)
	if _, err := s.Select(Query{ServiceType: "T", Constraint: "((("}); err == nil {
		t.Fatal("bad constraint accepted")
	}
	if _, err := s.Select(Query{ServiceType: "T", Preference: "((("}); err == nil {
		t.Fatal("bad preference accepted")
	}
}

func TestExportKeyedUpserts(t *testing.T) {
	s := NewService(nil)
	if _, err := s.ExportKeyed(nodeOffer(1, 100, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportKeyed(nodeOffer(1, 999, 512)); err != nil {
		t.Fatal(err)
	}
	if got := s.Count("NodeStatus"); got != 1 {
		t.Fatalf("Count = %d, want 1 (upsert)", got)
	}
	offers, _ := s.Select(Query{ServiceType: "NodeStatus"})
	mips, _ := offers[0].Properties.Get("mips").AsNumber()
	if mips != 999 {
		t.Fatalf("upserted mips = %v", mips)
	}
}

func TestWithdrawRef(t *testing.T) {
	s := NewService(nil)
	for i := 0; i < 3; i++ {
		if _, err := s.Export(nodeOffer(7, 100, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Export(nodeOffer(8, 100, 512)); err != nil {
		t.Fatal(err)
	}
	if n := s.WithdrawRef("NodeStatus", nodeRef(7)); n != 3 {
		t.Fatalf("WithdrawRef = %d, want 3", n)
	}
	if got := s.Count("NodeStatus"); got != 1 {
		t.Fatalf("Count = %d", got)
	}
}

func TestOfferExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := NewService(clock)
	o := nodeOffer(1, 100, 512)
	o.Expires = now.Add(30 * time.Second)
	if _, err := s.Export(o); err != nil {
		t.Fatal(err)
	}
	if got := s.Count("NodeStatus"); got != 1 {
		t.Fatalf("Count before expiry = %d", got)
	}
	now = now.Add(31 * time.Second)
	offers, err := s.Select(Query{ServiceType: "NodeStatus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 0 {
		t.Fatal("expired offer still selectable")
	}
	if got := s.Count("NodeStatus"); got != 0 {
		t.Fatalf("Count after expiry = %d", got)
	}
}

func TestDescribeReturnsCopy(t *testing.T) {
	s := NewService(nil)
	id, err := s.Export(nodeOffer(1, 100, 512))
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Describe(id)
	if err != nil {
		t.Fatal(err)
	}
	o.ID = "mine"
	o.Properties = constraint.Properties{"mips": constraint.Number(1)}.Record()
	o2, _ := s.Describe(id)
	mips, _ := o2.Properties.Get("mips").AsNumber()
	if o2.ID != id || mips != 100 {
		t.Fatal("Describe returned the stored offer, not a copy")
	}
	if _, err := s.Describe("offer-999"); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("Describe unknown err = %v", err)
	}
}

func TestSelectDeterministicOrderWithoutPreference(t *testing.T) {
	s := NewService(nil)
	for i := 0; i < 20; i++ {
		if _, err := s.Export(nodeOffer(i, 100, 512)); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.Select(Query{ServiceType: "NodeStatus"})
	b, _ := s.Select(Query{ServiceType: "NodeStatus"})
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("Select order not deterministic")
		}
	}
	// Insertion order.
	for i := 1; i < len(a); i++ {
		if offerSeq(a[i-1].ID) >= offerSeq(a[i].ID) {
			t.Fatalf("not insertion-ordered: %v then %v", a[i-1].ID, a[i].ID)
		}
	}
}

// offerSeq extracts the numeric suffix of an offer ID for stable ordering.
func offerSeq(id string) int {
	n := 0
	for i := len("offer-"); i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

func TestPropertiesWireRoundTrip(t *testing.T) {
	props := constraint.Properties{
		"mips": constraint.Number(1234.5),
		"os":   constraint.String("linux"),
		"ded":  constraint.Bool(true),
	}
	var e orb.Encoder
	EncodeProperties(&e, props.Record())
	got, err := DecodeProperties(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(props) {
		t.Fatalf("len = %d", got.Len())
	}
	if v, _ := got.Get("mips").AsNumber(); v != 1234.5 {
		t.Fatalf("mips = %v", v)
	}
	if v, _ := got.Get("os").AsString(); v != "linux" {
		t.Fatalf("os = %v", v)
	}
	if v, _ := got.Get("ded").AsBool(); !v {
		t.Fatal("ded lost")
	}
}

// TestDecodePropertiesLastDuplicateWins: a frame that repeats a name decodes
// to one property holding the last value.
func TestDecodePropertiesLastDuplicateWins(t *testing.T) {
	var e orb.Encoder
	e.PutU32(3)
	for _, kv := range []struct {
		k string
		v float64
	}{{"mips", 1}, {"ram", 2}, {"mips", 3}} {
		e.PutString(kv.k)
		e.PutU8(tagNumber)
		e.PutF64(kv.v)
	}
	got, err := DecodeProperties(orb.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Get("mips") != constraint.Number(3) || got.Get("ram") != constraint.Number(2) {
		t.Fatalf("decoded %d properties, mips = %#v", got.Len(), got.Get("mips"))
	}
}

// Property: arbitrary string/number property maps round-trip the wire.
func TestPropertiesWireProperty(t *testing.T) {
	f := func(keys []string, nums []float64) bool {
		props := make(constraint.Properties)
		for i, k := range keys {
			if i < len(nums) {
				props[k] = constraint.Number(nums[i])
			} else {
				props[k] = constraint.String(k)
			}
		}
		var e orb.Encoder
		EncodeProperties(&e, props.Record())
		got, err := DecodeProperties(orb.NewDecoder(e.Bytes()))
		if err != nil || got.Len() != len(props) {
			return false
		}
		for k, v := range props {
			gv, ok := got.Property(k)
			if !ok {
				return false
			}
			if n, isNum := v.AsNumber(); isNum {
				gn, gok := gv.AsNumber()
				// NaN round-trips bit-exactly but NaN != NaN.
				if !gok || (n == n && gn != n) {
					return false
				}
			} else if sv, isStr := v.AsString(); isStr {
				gs, gok := gv.AsString()
				if !gok || gs != sv {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClientAgainstServantTCP(t *testing.T) {
	o := orb.New()
	defer o.Close()
	svc := NewService(time.Now)
	adapter := orb.NewAdapter()
	if err := adapter.Register(ObjectKey, Servant(svc)); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", adapter)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient(o, srv.Ref(ObjectKey))

	id, err := client.Export(nodeOffer(1, 800, 512))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty offer ID")
	}
	if _, err := client.ExportKeyed(nodeOffer(1, 850, 512)); err != nil {
		t.Fatal(err)
	}
	n, err := client.Count("NodeStatus")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Count over wire = %d (keyed export should have upserted)", n)
	}
	offers, err := client.Select(Query{
		ServiceType: "NodeStatus",
		Constraint:  "mips >= 500 and os == 'linux'",
		Preference:  "mips",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Fatalf("Select over wire = %v", offers)
	}
	mips, _ := offers[0].Properties.Get("mips").AsNumber()
	if mips != 850 {
		t.Fatalf("mips = %v", mips)
	}
	if err := client.Withdraw(offers[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := client.Withdraw(offers[0].ID); err == nil {
		t.Fatal("double withdraw over wire succeeded")
	}
	// Bad constraint propagates as an error.
	if _, err := client.Select(Query{ServiceType: "NodeStatus", Constraint: "((("}); err == nil {
		t.Fatal("bad constraint over wire accepted")
	}
}

func TestCountAllTypes(t *testing.T) {
	s := NewService(nil)
	if _, err := s.Export(nodeOffer(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	other := nodeOffer(2, 1, 1)
	other.ServiceType = "Printer"
	if _, err := s.Export(other); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(""); got != 2 {
		t.Fatalf("Count(all) = %d", got)
	}
	if got := s.Count("Printer"); got != 1 {
		t.Fatalf("Count(Printer) = %d", got)
	}
}

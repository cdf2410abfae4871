package chaos

import (
	"sync"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// TestLateDeliveryReadsSentBytes: a delayed or duplicated message is delivered
// after Invoke has returned, when its caller may already have written over its
// request buffer — as every protocol stub does once it puts its pooled encoder
// back and the next call encodes into it. On both transports each delivery
// must still carry the update the caller sent.
func TestLateDeliveryReadsSentBytes(t *testing.T) {
	sent := protocol.NodeStatus{NodeID: "node-1", LANID: "lan-a"}
	next := protocol.NodeStatus{NodeID: "node-2", LANID: "lan-b"}
	encode := func(s protocol.NodeStatus) []byte {
		var e orb.Encoder
		protocol.EncodeUpdate(&e, s, nil)
		return e.Bytes()
	}
	for _, transport := range []string{"loopback", "tcp"} {
		for _, fault := range []struct {
			name       string
			fault      MessageFault
			deliveries int
		}{
			{"delay", MessageFault{Delay: 1, DelayBy: time.Second}, 1},
			{"duplicate", MessageFault{Duplicate: 1, DuplicateAfter: time.Second}, 2},
		} {
			t.Run(transport+"/"+fault.name, func(t *testing.T) {
				var (
					mu  sync.Mutex
					got []string
				)
				mux := orb.NewOpMux().Handle(protocol.OpUpdate, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
					var buf [protocol.MaxWindows]protocol.AvailWindow
					s, _, _, err := protocol.DecodeUpdate(req, nil, &buf)
					if err != nil {
						return nil, err
					}
					mu.Lock()
					got = append(got, s.NodeID+"@"+s.LANID)
					mu.Unlock()
					e := orb.GetEncoder()
					e.PutInt(1)
					return e, nil
				})
				adapter := orb.NewAdapter()
				if err := adapter.Register(protocol.GRMKey, mux); err != nil {
					t.Fatal(err)
				}
				o := orb.New()
				defer o.Close()
				ref := orb.ObjectRef{Key: protocol.GRMKey}
				if transport == "loopback" {
					ep, err := o.BindLoopback("grm", adapter)
					if err != nil {
						t.Fatal(err)
					}
					ref.Endpoint = ep
				} else {
					srv, err := o.ListenTCP("127.0.0.1:0", adapter)
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					ref = srv.Ref(protocol.GRMKey)
				}
				clock := sim.NewVirtualClock()
				engine := NewEngine(clock, sim.NewRNG(1))
				engine.AddFault(fault.fault)
				o.SetInterceptor(engine)

				buf := encode(sent)
				_, _ = o.Invoke(ref, protocol.OpUpdate, buf)
				copy(buf, encode(next)) // the caller's next request, in the same buffer
				clock.Advance(2 * time.Second)

				mu.Lock()
				defer mu.Unlock()
				if len(got) != fault.deliveries {
					t.Fatalf("%d deliveries, want %d", len(got), fault.deliveries)
				}
				for i, v := range got {
					if v != "node-1@lan-a" {
						t.Errorf("delivery %d carried %s, want node-1@lan-a", i+1, v)
					}
				}
			})
		}
	}
}

package chaos

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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

// TestRecycledRepliesUnderLateDelivery: Op.Invoke puts each reply's buffer
// back in the pool once it is decoded, while delayed and duplicated
// deliveries of earlier calls still run and read replies of their own out of
// the same pool. On both transports every reply a caller decodes must be the
// one the servant sent for its request.
func TestRecycledRepliesUnderLateDelivery(t *testing.T) {
	echo := &orb.Op[int, string]{Name: "echo",
		EncodeReq: func(i int, e *orb.Encoder) { e.PutInt(i) },
		DecodeReq: func(d *orb.Decoder) (int, error) { i := d.Int(); return i, d.Err() },
		EncodeRep: func(s string, e *orb.Encoder) { e.PutString(s) },
		DecodeRep: func(d *orb.Decoder) (string, error) { s := d.String(); return s, d.Err() },
	}
	// Replies of many sizes, so buffers of one size serve replies of another.
	reply := func(i int) string { return fmt.Sprintf("reply-%d-%s", i, strings.Repeat("x", i%97)) }
	const calls = 200
	for _, transport := range []string{"loopback", "tcp"} {
		for _, fault := range []struct {
			name  string
			fault MessageFault
		}{
			{"delay", MessageFault{Delay: 0.5, DelayBy: time.Millisecond}},
			{"duplicate", MessageFault{Duplicate: 0.5, DuplicateAfter: time.Millisecond}},
		} {
			t.Run(transport+"/"+fault.name, func(t *testing.T) {
				var served atomic.Int64
				mux := orb.NewOpMux()
				orb.Serve(mux, echo, func(i int) (string, error) {
					served.Add(1)
					return reply(i), nil
				})
				adapter := orb.NewAdapter()
				if err := adapter.Register("echo", mux); err != nil {
					t.Fatal(err)
				}
				o := orb.New()
				defer o.Close()
				ref := orb.ObjectRef{Key: "echo"}
				if transport == "loopback" {
					ep, err := o.BindLoopback("echo", adapter)
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
					ref = srv.Ref("echo")
				}
				clock := sim.NewVirtualClock()
				engine := NewEngine(clock, sim.NewRNG(1))
				engine.AddFault(fault.fault)
				o.SetInterceptor(engine)

				// The late deliveries run on their own goroutine, as the
				// caller goes on calling.
				stop := make(chan struct{})
				var late sync.WaitGroup
				late.Add(1)
				go func() {
					defer late.Done()
					for {
						select {
						case <-stop:
							return
						default:
							clock.Advance(time.Millisecond)
						}
					}
				}()
				answered := 0
				for i := 0; i < calls; i++ {
					got, err := echo.Invoke(o, ref, i)
					if err != nil {
						if !orb.IsCode(err, orb.CodeTimeout) {
							t.Fatalf("call %d: %v", i, err)
						}
						continue
					}
					answered++
					if want := reply(i); got != want {
						t.Fatalf("call %d decoded %q, want %q", i, got, want)
					}
				}
				close(stop)
				late.Wait()
				clock.Advance(time.Second)

				st := engine.Stats()
				if st.Delayed+st.Duplicated == 0 || answered != calls-st.Delayed {
					t.Fatalf("%d of %d calls answered, %d delayed, %d duplicated", answered, calls, st.Delayed, st.Duplicated)
				}
				if got, want := served.Load(), int64(calls+st.Duplicated); got != want {
					t.Fatalf("servant ran %d times, want %d", got, want)
				}
			})
		}
	}
}

package chaos

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/testutil/leak"
	"integrade/internal/testutil/seeds"
)

func TestMain(m *testing.M) { leak.Main(m) }

// rig wires an Engine onto a loopback ORB with one counting servant.
type rig struct {
	clock  *sim.VirtualClock
	engine *Engine
	orb    *orb.ORB
	ref    orb.ObjectRef
	calls  *atomic.Int64
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	clock := sim.NewVirtualClock()
	engine := NewEngine(clock, sim.NewRNG(seed))
	o := orb.New()
	var calls atomic.Int64
	mux := orb.NewOpMux().Handle("ping", func(string, *orb.Decoder) (*orb.Encoder, error) {
		calls.Add(1)
		return &orb.Encoder{}, nil
	})
	a := orb.NewAdapter()
	if err := a.Register("obj", mux); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("svc", a)
	if err != nil {
		t.Fatal(err)
	}
	o.SetInterceptor(engine)
	return &rig{
		clock:  clock,
		engine: engine,
		orb:    o,
		ref:    orb.ObjectRef{Endpoint: ep, Key: "obj"},
		calls:  &calls,
	}
}

func TestMatchCovers(t *testing.T) {
	ep := orb.Endpoint{Net: orb.NetLoopback, Addr: "c1/n1"}
	cases := []struct {
		m    Match
		want bool
	}{
		{Match{}, true},
		{Match{Addr: "c1/n1"}, true},
		{Match{Addr: "c1/n2"}, false},
		{Match{Key: "obj"}, true},
		{Match{Key: "other"}, false},
		{Match{Op: "ping"}, true},
		{Match{Op: "pong"}, false},
		{Match{Addr: "c1/n1", Key: "obj", Op: "ping"}, true},
		{Match{Addr: "c1/n1", Key: "obj", Op: "pong"}, false},
	}
	for _, c := range cases {
		if got := c.m.Covers(ep, "obj", "ping"); got != c.want {
			t.Errorf("%+v.Covers = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestDropFault(t *testing.T) {
	r := newRig(t, 7)
	r.engine.AddFault(MessageFault{Drop: 1.0})
	if _, err := r.orb.Invoke(r.ref, "ping", nil); !orb.IsCode(err, orb.CodeTransport) {
		t.Fatalf("dropped invoke = %v", err)
	}
	if r.calls.Load() != 0 {
		t.Fatal("dropped message reached servant")
	}
	s := r.engine.Stats()
	if s.Dropped != 1 || s.Seen != 1 {
		t.Fatalf("stats = %+v", s)
	}

	r.engine.ClearFaults()
	if _, err := r.orb.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("healed invoke: %v", err)
	}
	if r.calls.Load() != 1 {
		t.Fatal("healed message lost")
	}
}

func TestDelayFaultDeliversLate(t *testing.T) {
	r := newRig(t, 7)
	r.engine.AddFault(MessageFault{Delay: 1.0, DelayBy: 10 * time.Second})

	// The sender sees a timeout immediately; the side effects land once
	// virtual time passes the lag.
	_, err := r.orb.Invoke(r.ref, "ping", nil)
	if !orb.IsCode(err, orb.CodeTimeout) {
		t.Fatalf("delayed invoke = %v", err)
	}
	if r.calls.Load() != 0 {
		t.Fatal("delayed message arrived early")
	}
	r.clock.Advance(9 * time.Second)
	if r.calls.Load() != 0 {
		t.Fatal("delayed message arrived before its lag")
	}
	r.clock.Advance(2 * time.Second)
	if r.calls.Load() != 1 {
		t.Fatalf("late delivery missing: servant calls = %d", r.calls.Load())
	}
	if s := r.engine.Stats(); s.Delayed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDuplicateFaultDeliversTwice(t *testing.T) {
	r := newRig(t, 7)
	r.engine.AddFault(MessageFault{Duplicate: 1.0, DuplicateAfter: 5 * time.Second})

	if _, err := r.orb.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("duplicated invoke: %v", err)
	}
	if r.calls.Load() != 1 {
		t.Fatalf("first delivery count = %d", r.calls.Load())
	}
	r.clock.Advance(6 * time.Second)
	if r.calls.Load() != 2 {
		t.Fatalf("second delivery missing: servant calls = %d", r.calls.Load())
	}
	if s := r.engine.Stats(); s.Duplicated != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPartitionIsolatesEndpoint(t *testing.T) {
	r := newRig(t, 7)
	r.engine.Isolate("svc")
	if !r.engine.Isolated("svc") {
		t.Fatal("Isolated(svc) = false")
	}
	if _, err := r.orb.Invoke(r.ref, "ping", nil); !orb.IsCode(err, orb.CodeTransport) {
		t.Fatalf("partitioned invoke = %v", err)
	}
	if r.calls.Load() != 0 {
		t.Fatal("partitioned message delivered")
	}
	r.engine.Heal("svc")
	if _, err := r.orb.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("healed invoke: %v", err)
	}
	if s := r.engine.Stats(); s.PartitionDrops != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirectionalPartitionIsOneWay(t *testing.T) {
	r := newRig(t, 7)
	src := r.engine.SourceInvoker("peer-a", r.orb)

	// Block peer-a -> svc only. peer-a's sends fail; an unwrapped caller
	// (any other source) still reaches the servant, and so does traffic from
	// a different wrapped source.
	r.engine.IsolateDirected("peer-a", "svc")
	if !r.engine.OutboundBlocked("peer-a", "svc") {
		t.Fatal("OutboundBlocked(peer-a, svc) = false")
	}
	if r.engine.OutboundBlocked("svc", "peer-a") {
		t.Fatal("reverse direction blocked")
	}
	if _, err := src.Invoke(r.ref, "ping", nil); !orb.IsCode(err, orb.CodeTransport) {
		t.Fatalf("directed invoke = %v", err)
	}
	if r.calls.Load() != 0 {
		t.Fatal("directed drop reached servant")
	}
	if _, err := r.orb.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("other-source invoke: %v", err)
	}
	other := r.engine.SourceInvoker("peer-b", r.orb)
	if _, err := other.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("peer-b invoke: %v", err)
	}
	if r.calls.Load() != 2 {
		t.Fatalf("servant calls = %d, want 2", r.calls.Load())
	}
	if s := r.engine.Stats(); s.DirectionalDrop != 1 {
		t.Fatalf("stats = %+v", s)
	}

	r.engine.HealDirected("peer-a", "svc")
	if _, err := src.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("healed directed invoke: %v", err)
	}
}

func TestIsolateOutboundDropsAllSends(t *testing.T) {
	r := newRig(t, 7)
	src := r.engine.SourceInvoker("peer-a", r.orb)

	r.engine.IsolateOutbound("peer-a")
	if _, err := src.Invoke(r.ref, "ping", nil); !orb.IsCode(err, orb.CodeTransport) {
		t.Fatalf("outbound invoke = %v", err)
	}
	// Inbound traffic to svc is untouched: the partition is one-way.
	if _, err := r.orb.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("inbound invoke: %v", err)
	}
	r.engine.HealOutbound("peer-a")
	if _, err := src.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("healed outbound invoke: %v", err)
	}
	if s := r.engine.Stats(); s.DirectionalDrop != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestHealAllClearsDirectionalRules(t *testing.T) {
	r := newRig(t, 7)
	r.engine.Isolate("svc")
	r.engine.IsolateOutbound("peer-a")
	r.engine.IsolateDirected("peer-a", "svc")
	r.engine.HealAll()
	if r.engine.Isolated("svc") {
		t.Fatal("symmetric partition survived HealAll")
	}
	if r.engine.OutboundBlocked("peer-a", "svc") {
		t.Fatal("directional rule survived HealAll")
	}
}

func TestSchedulePartitionDirected(t *testing.T) {
	r := newRig(t, 7)
	src := r.engine.SourceInvoker("peer-a", r.orb)
	r.engine.SchedulePartitionDirected([]string{"peer-a"}, []string{"svc"}, time.Minute, 2*time.Minute)

	if _, err := src.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("before window: %v", err)
	}
	r.clock.Advance(90 * time.Second) // t=1m30s: rule active
	if _, err := src.Invoke(r.ref, "ping", nil); !orb.IsCode(err, orb.CodeTransport) {
		t.Fatalf("inside window = %v", err)
	}
	r.clock.Advance(time.Minute) // t=2m30s: healed
	if _, err := src.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("after window: %v", err)
	}
}

func TestFaultMatchScoping(t *testing.T) {
	r := newRig(t, 7)
	// A fault scoped to a different op leaves this traffic untouched.
	r.engine.AddFault(MessageFault{Match: Match{Op: "other"}, Drop: 1.0})
	if _, err := r.orb.Invoke(r.ref, "ping", nil); err != nil {
		t.Fatalf("unmatched fault dropped traffic: %v", err)
	}
	// Scoping to this op drops it.
	r.engine.AddFault(MessageFault{Match: Match{Op: "ping"}, Drop: 1.0})
	if _, err := r.orb.Invoke(r.ref, "ping", nil); !orb.IsCode(err, orb.CodeTransport) {
		t.Fatalf("matched fault did not drop: %v", err)
	}
}

// TestFaultPrecedence: of two active faults that both cover a message, the
// one activated first decides its fate; once it is removed the other does,
// and a fault window's removal leaves the faults that remain in the order they
// were activated.
func TestFaultPrecedence(t *testing.T) {
	r := newRig(t, 7)
	// fate invokes once and names what happened to the message.
	fate := func() string {
		t.Helper()
		_, err := r.orb.Invoke(r.ref, "ping", nil)
		switch {
		case orb.IsCode(err, orb.CodeTransport):
			return "dropped"
		case orb.IsCode(err, orb.CodeTimeout):
			return "delayed"
		case err != nil:
			t.Fatalf("invoke: %v", err)
		}
		return "delivered"
	}
	expect := func(label, want string) {
		t.Helper()
		if got := fate(); got != want {
			t.Fatalf("%s: message %s, want %s", label, got, want)
		}
	}

	drop := r.engine.AddFault(MessageFault{Drop: 1.0})
	delay := r.engine.AddFault(MessageFault{Match: Match{Op: "ping"}, Delay: 1.0, DelayBy: time.Second})
	expect("drop activated before delay", "dropped")
	r.engine.RemoveFault(drop)
	expect("drop removed", "delayed")
	r.engine.RemoveFault(delay)
	expect("both removed", "delivered")

	// A window's drop, then a delay and a duplicate: the drop decides while
	// its window is open, and the delay, still ahead of the duplicate, once
	// it has closed.
	r.engine.FaultWindow(MessageFault{Drop: 1.0}, time.Minute, 3*time.Minute)
	r.clock.Advance(2 * time.Minute)
	delay = r.engine.AddFault(MessageFault{Delay: 1.0, DelayBy: time.Second})
	r.engine.AddFault(MessageFault{Duplicate: 1.0, DuplicateAfter: time.Second})
	expect("inside the window", "dropped")
	r.clock.Advance(2 * time.Minute)
	expect("after the window", "delayed")
	r.clock.Advance(2 * time.Second) // the delayed message lands
	r.engine.RemoveFault(delay)
	calls := r.calls.Load()
	expect("delay removed", "delivered")
	r.clock.Advance(2 * time.Second)
	if got := r.calls.Load() - calls; got != 2 {
		t.Fatalf("delay removed: the message reached the servant %d times, want 2 (duplicated)", got)
	}
	if s := r.engine.Stats(); s.Dropped != 2 || s.Delayed != 2 || s.Duplicated != 1 {
		t.Fatalf("stats = %+v, want 2 dropped, 2 delayed, 1 duplicated", s)
	}
}

func TestFaultWindowAndPartitionSchedule(t *testing.T) {
	r := newRig(t, 7)
	r.engine.FaultWindow(MessageFault{Drop: 1.0}, time.Minute, 2*time.Minute)
	r.engine.SchedulePartition([]string{"svc"}, 3*time.Minute, 4*time.Minute)

	probe := func(wantErr bool, label string) {
		t.Helper()
		_, err := r.orb.Invoke(r.ref, "ping", nil)
		if wantErr && err == nil {
			t.Fatalf("%s: invoke succeeded, want fault", label)
		}
		if !wantErr && err != nil {
			t.Fatalf("%s: invoke failed: %v", label, err)
		}
	}
	probe(false, "before window")
	r.clock.Advance(90 * time.Second) // t=1m30s: drop window active
	probe(true, "inside drop window")
	r.clock.Advance(time.Minute) // t=2m30s: window closed
	probe(false, "after drop window")
	r.clock.Advance(time.Minute) // t=3m30s: partition active
	probe(true, "inside partition")
	r.clock.Advance(time.Minute) // t=4m30s: healed
	probe(false, "after partition heal")
}

func TestScheduleCrashFiresHooks(t *testing.T) {
	clock := sim.NewVirtualClock()
	e := NewEngine(clock, sim.NewRNG(1))
	var crashed, restarted atomic.Int64
	e.RegisterNode("n1", NodeHooks{
		Crash:   func() { crashed.Add(1) },
		Restart: func() { restarted.Add(1) },
	})
	e.ScheduleCrash("n1", time.Minute, 2*time.Minute)
	e.ScheduleCrash("ghost", time.Minute, time.Minute) // unregistered: ignored

	clock.Advance(30 * time.Second)
	if crashed.Load() != 0 {
		t.Fatal("crash fired early")
	}
	clock.Advance(time.Minute) // t=1m30s
	if crashed.Load() != 1 || restarted.Load() != 0 {
		t.Fatalf("after crash: crashed=%d restarted=%d", crashed.Load(), restarted.Load())
	}
	clock.Advance(2 * time.Minute) // t=3m30s, past restart at 3m
	if restarted.Load() != 1 {
		t.Fatalf("restart missing: restarted=%d", restarted.Load())
	}
	s := e.Stats()
	if s.Crashes != 1 || s.Restarts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := e.Nodes(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("Nodes() = %v", got)
	}
}

// faultTrace drives a fixed traffic pattern through a seeded engine and
// returns the resulting fault counters as a string.
func faultTrace(t *testing.T, seed int64) string {
	t.Helper()
	r := newRig(t, seed)
	r.engine.AddFault(MessageFault{Drop: 0.2, Delay: 0.2, DelayBy: time.Second, Duplicate: 0.2, DuplicateAfter: time.Second})
	for i := 0; i < 200; i++ {
		_, _ = r.orb.Invoke(r.ref, "ping", nil)
		r.clock.Advance(100 * time.Millisecond)
	}
	r.clock.Advance(time.Minute) // flush late deliveries
	s := r.engine.Stats()
	return fmt.Sprintf("seen=%d drop=%d delay=%d dup=%d calls=%d",
		s.Seen, s.Dropped, s.Delayed, s.Duplicated, r.calls.Load())
}

// TestSeededTrace checks at each seed that the fault schedule is
// reproducible within the process and that the next seed gives another one.
func TestSeededTrace(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		a := faultTrace(t, seed)
		if b := faultTrace(t, seed); a != b {
			t.Fatalf("seed %d diverged:\n%s\n%s", seed, a, b)
		}
		if c := faultTrace(t, seed+1); a == c {
			t.Fatalf("seeds %d and %d produced identical traces: %s", seed, seed+1, a)
		}
	})
}

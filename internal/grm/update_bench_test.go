package grm

import (
	"path/filepath"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
	"integrade/internal/testutil/allocbudget"
)

// loopbackUpdates is a 10⁴-node GRM behind a loopback ORB, as the benchmark's
// fleets run it, with the client its nodes report through and the statuses
// they report: missFleet's, each with 0 to 3 availability windows, in a fixed
// shuffled order. The benchmark's fleets update in a seed-shuffled order, so
// each update finds its node's record and its trader slot cold, as a walk in
// registration order would not.
func loopbackUpdates(tb testing.TB) (*protocol.GRMClient, []protocol.NodeStatus) {
	tb.Helper()
	g, client, stop := loopbackGRM(tb)
	tb.Cleanup(stop)
	fleet := missFleet(tb, g, 10000)
	now := g.clock.Now()
	for i := range fleet {
		for w := 0; w < i%4; w++ {
			start := now.Add(time.Duration(w) * 8 * time.Hour)
			fleet[i].Windows = append(fleet[i].Windows, protocol.AvailWindow{
				Start: start, End: start.Add(6 * time.Hour), Confidence: 0.5 + 0.1*float64(w),
			})
		}
	}
	shuffled := make([]protocol.NodeStatus, len(fleet))
	for i, j := range sim.NewRNG(2).Perm(len(fleet)) {
		shuffled[i] = fleet[j]
	}
	return client, shuffled
}

// loopbackGRM is an empty GRM behind a loopback ORB, the client its nodes
// report through, and what stops both.
func loopbackGRM(tb testing.TB) (*GRM, *protocol.GRMClient, func()) {
	tb.Helper()
	o := orb.New()
	g := New("bench", sim.NewVirtualClock(), o)
	stop := func() {
		g.Stop()
		o.Close()
	}
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		stop()
		tb.Fatal(err)
	}
	ep, err := o.BindLoopback("grm", adapter)
	if err != nil {
		stop()
		tb.Fatal(err)
	}
	return g, protocol.NewGRMClient(o, orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}), stop
}

// BenchmarkRegister10k is a fresh GRM learning its cluster, as a cold-rebuilt
// manager does when its LRMs re-register: loopbackUpdates' shuffled 10⁴-node
// fleet, each status a node's first Information Update through
// GRMClient.Update. One iteration is one fleet; the empty GRM it registers
// with is built, and stopped, off the clock.
func BenchmarkRegister10k(b *testing.B) {
	_, fleet := loopbackUpdates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, client, stop := loopbackGRM(b)
		b.StartTimer()
		for j := range fleet {
			if _, err := client.Update(fleet[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n := g.KnownNodes(); n != len(fleet) {
			b.Fatalf("the GRM learned %d of %d nodes", n, len(fleet))
		}
		stop()
		b.StartTimer()
	}
}

// BenchmarkLoopbackUpdate10k is one Information Update as the loopback fleets
// send it: GRMClient.Update — which encodes into a pooled Encoder, as every
// real update does — through the ORB into a GRM that knows 10⁴ nodes, decoded
// against the node's record, to the trader upsert and back. `make
// profile-update` profiles it; the allocations it counts are gated by
// testdata/alloc_budget.txt.
func BenchmarkLoopbackUpdate10k(b *testing.B) {
	client, fleet := loopbackUpdates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Update(fleet[i%len(fleet)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoopbackUpdateAllocBudget holds BenchmarkLoopbackUpdate10k's update to
// the rows of testdata/alloc_budget.txt: `update-loopback` in allocations, and
// `update-loopback-bytes` in bytes, averaged over one pass of the shuffled
// fleet. Each node has reported its windows once before either is measured,
// so every record's window array has the room its node needs.
func TestLoopbackUpdateAllocBudget(t *testing.T) {
	if allocbudget.Race {
		t.Skip("the update's pooled encoders allocate afresh under the race detector")
	}
	path := filepath.Join("testdata", "alloc_budget.txt")
	client, fleet := loopbackUpdates(t)
	update := func(s protocol.NodeStatus) {
		if _, err := client.Update(s); err != nil {
			t.Fatal(err)
		}
	}
	sweep := func() {
		for _, s := range fleet {
			update(s)
		}
	}
	sweep()
	for _, row := range allocbudget.Parse(t, path) {
		switch row.Name {
		case "update-loopback":
			i := 0
			got := testing.AllocsPerRun(2000, func() {
				update(fleet[i%len(fleet)])
				i++
			})
			if got > row.Budget {
				t.Fatalf("%s: a loopback update allocates %.2f times, budget %.0f", path, got, row.Budget)
			}
			t.Logf("%s: a loopback update allocates %.2f times, budget %.0f", path, got, row.Budget)
		case "update-loopback-bytes":
			got := float64(allocbudget.Bytes(sweep)) / float64(len(fleet))
			if got > row.Budget {
				t.Fatalf("%s: a loopback update allocates %.1f B, budget %.0f", path, got, row.Budget)
			}
			t.Logf("%s: a loopback update allocates %.1f B, budget %.0f", path, got, row.Budget)
		default:
			t.Fatalf("%s: unknown row %q (known: update-loopback, update-loopback-bytes)", path, row.Name)
		}
	}
}

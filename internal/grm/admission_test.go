package grm_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/testutil/seeds"
	"integrade/internal/trading"
)

// admitFixture is a minimal admission-pipeline harness: a GRM whose trader
// is primed with stub node offers, every reservation answered by reserveFn —
// so tests control exactly when the drainer's batch work completes.
type admitFixture struct {
	o       *orb.ORB
	g       *grm.GRM
	adapter *orb.Adapter
}

func newAdmitFixture(t *testing.T, nodes int, reserveFn func(), opts ...grm.Option) *admitFixture {
	t.Helper()
	o := orb.New()
	g := grm.New("admit", sim.NewVirtualClock(), o, opts...)
	f := &admitFixture{o: o, g: g, adapter: orb.NewAdapter()}
	mux := orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			if reserveFn != nil {
				reserveFn()
			}
			var e orb.Encoder
			protocol.ReserveReply{Granted: true, ReservationID: "rsv"}.Encode(&e)
			return &e, nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeExecuteRequest(req); err != nil {
				return nil, err
			}
			return &orb.Encoder{}, nil
		})
	if err := f.adapter.Register(protocol.LRMKey, mux); err != nil {
		t.Fatal(err)
	}
	batch := make([]trading.Offer, nodes)
	for i := range batch {
		batch[i] = f.offer(t, fmt.Sprintf("stub-%d", i), 1000)
	}
	if _, err := g.Trader().ExportBatch(batch); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Stop(); o.Close() })
	return f
}

// offer binds a stub node named name and returns its status offer: a
// dedicated node with mips of free CPU and 1 GiB of free memory.
func (f *admitFixture) offer(t *testing.T, name string, mips float64) trading.Offer {
	t.Helper()
	ep, err := f.o.BindLoopback(name, f.adapter)
	if err != nil {
		t.Fatal(err)
	}
	return trading.Offer{
		Ref: orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey},
		Properties: constraint.Properties{
			grm.PropNode:      constraint.String(name),
			grm.PropMIPSFree:  constraint.Number(mips),
			grm.PropRAMFree:   constraint.Number(1024),
			grm.PropDedicated: constraint.Bool(true),
		}.Record(),
	}
}

func admitSpec(i int) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:        fmt.Sprintf("admit-%d", i),
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 1000,
		Alloc:       resource.Vector{MIPS: 50, RAMMB: 64},
	}
}

// waitPlaced polls until n tasks have been placed or the deadline expires.
func (f *admitFixture) waitPlaced(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.g.Stats().TasksPlaced < n {
		if time.Now().After(deadline) {
			t.Fatalf("placed %d of %d tasks before deadline; stats %+v",
				f.g.Stats().TasksPlaced, n, f.g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBackpressure fills the bounded queue while the background
// drainer is parked inside a reservation RPC and expects the overflow
// submission to fail fast with ErrAdmissionFull, counted and gauged in
// Stats; releasing the drainer then places everything that was admitted.
func TestAdmissionBackpressure(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	f := newAdmitFixture(t, 1, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}, grm.WithAsyncAdmission(), grm.WithAdmissionLimit(2), grm.WithAdmissionBatch(1))

	if _, err := f.g.Submit(admitSpec(0)); err != nil {
		t.Fatal(err)
	}
	// The drainer has dequeued admit-0 and is blocked in Reserve: the queue
	// is empty and stays empty until release, so the next two submissions
	// fill it to the limit deterministically.
	<-entered
	for i := 1; i <= 2; i++ {
		if _, err := f.g.Submit(admitSpec(i)); err != nil {
			t.Fatalf("submit %d within limit: %v", i, err)
		}
	}
	if _, err := f.g.Submit(admitSpec(3)); !errors.Is(err, grm.ErrAdmissionFull) {
		t.Fatalf("overflow submit err = %v, want ErrAdmissionFull", err)
	}

	st := f.g.Stats()
	if st.AdmissionQueued != 3 || st.AdmissionRejected != 1 {
		t.Fatalf("queued/rejected = %d/%d, want 3/1", st.AdmissionQueued, st.AdmissionRejected)
	}
	if st.AdmissionQueueDepth != 2 || st.AdmissionPeakDepth != 2 {
		t.Fatalf("depth/peak = %d/%d, want 2/2", st.AdmissionQueueDepth, st.AdmissionPeakDepth)
	}

	close(release)
	f.waitPlaced(t, 3)
	st = f.g.Stats()
	if st.AdmissionQueueDepth != 0 {
		t.Fatalf("queue depth after drain = %d", st.AdmissionQueueDepth)
	}
	if st.SchedulerBatches < 3 || st.MaxBatchSize != 1 {
		t.Fatalf("batches/max = %d/%d, want >=3 batches of 1", st.SchedulerBatches, st.MaxBatchSize)
	}
}

// TestSyncAdmissionDrainsInline pins the seed semantics of the default
// (synchronous) mode: Submit returns only after its own application has
// been through a scheduling pass, so the queue is empty and the task placed
// the moment Submit comes back.
func TestSyncAdmissionDrainsInline(t *testing.T) {
	f := newAdmitFixture(t, 2, nil)
	if _, err := f.g.Submit(admitSpec(0)); err != nil {
		t.Fatal(err)
	}
	st := f.g.Stats()
	if st.TasksPlaced != 1 {
		t.Fatalf("TasksPlaced after sync Submit = %d, want 1", st.TasksPlaced)
	}
	if st.AdmissionQueueDepth != 0 || st.AdmissionQueued != 1 || st.SchedulerBatches != 1 {
		t.Fatalf("stats after sync Submit = %+v", st)
	}
}

// gatedFixture is an admitFixture under asynchronous admission whose first
// Reserve — the gate application's, a batch of its own — parks the drainer
// until release is closed, so that what is submitted meanwhile is drained as
// one batch. Every later Reserve calls then with its ordinal, 2 for the first
// of the batch, on the drainer's goroutine.
func gatedFixture(t *testing.T, then func(n int32)) (f *admitFixture, release chan struct{}) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	var reserves atomic.Int32
	f = newAdmitFixture(t, 4, func() {
		n := reserves.Add(1)
		if n == 1 {
			entered <- struct{}{}
			<-release
		} else if then != nil {
			then(n)
		}
	}, grm.WithAsyncAdmission())
	if _, err := f.g.Submit(admitSpec(-1)); err != nil {
		t.Fatal(err)
	}
	<-entered
	return f, release
}

// TestBatchWithUncompilableConstraint: one application of a 64-application
// admission batch of five distinct constraints has a constraint that does not
// compile. Its placement fails and is counted, and every other application of
// the batch is placed.
func TestBatchWithUncompilableConstraint(t *testing.T) {
	f, release := gatedFixture(t, nil)
	var bad string
	for i := 0; i < grm.DefaultAdmissionBatch; i++ {
		spec := admitSpec(i)
		spec.Alloc.MIPS += float64(i % 4)
		if i == 10 {
			spec.Constraint = "mips_free >="
		}
		id, err := f.g.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			bad = id
		}
	}
	close(release)
	f.waitPlaced(t, grm.DefaultAdmissionBatch) // the gate and 63 of the batch
	f.g.Stop()                                 // waits for the drainer to close its batch
	st := f.g.Stats()
	if st.TasksPlaced != grm.DefaultAdmissionBatch || st.PlacementFailures != 1 ||
		st.SchedulerBatches != 2 || st.MaxBatchSize != grm.DefaultAdmissionBatch {
		t.Fatalf("placed %d, failures %d, batches %d, largest %d; want %d, 1, 2, %d",
			st.TasksPlaced, st.PlacementFailures, st.SchedulerBatches, st.MaxBatchSize,
			grm.DefaultAdmissionBatch, grm.DefaultAdmissionBatch)
	}
	if as, err := f.g.AppStatus(bad); err != nil || as.Tasks[0].State != protocol.TaskPending {
		t.Fatalf("the application with the bad constraint: %+v, %v; want its task pending", as, err)
	}
}

// TestTraderWriteMidBatch: a node registers while the first application of an
// admission batch of two constraints, c1 c2 c1 c2, is in its Reserve. The
// applications after it see the node — the best candidate for both, so they
// all run there — and the snapshot counters are those of filling each
// constraint at its first use: a miss for the first application, a miss for
// the second because the trader changed, a miss for the third because that
// dropped every entry, and a hit for the fourth; plus the gate's miss.
func TestTraderWriteMidBatch(t *testing.T) {
	var (
		tr    *trading.Service
		fresh trading.Offer
	)
	f, release := gatedFixture(t, func(n int32) {
		if n == 2 {
			if _, err := tr.ExportKeyed(fresh); err != nil {
				t.Error(err)
			}
		}
	})
	tr, fresh = f.g.Trader(), f.offer(t, "fresh", 4000)
	var ids []string
	for i := 0; i < 4; i++ {
		spec := admitSpec(i)
		spec.Alloc.MIPS += float64(10 * (i % 2))
		id, err := f.g.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	close(release)
	f.waitPlaced(t, 5)
	f.g.Stop() // waits for the drainer to close its batch
	for i, id := range ids {
		want := "fresh"
		if i == 0 {
			want = "stub-0"
		}
		if as, err := f.g.AppStatus(id); err != nil || as.Tasks[0].NodeID != want {
			t.Errorf("application %d: %+v, %v; want it on %s", i, as.Tasks, err, want)
		}
	}
	if st := f.g.Stats(); st.SnapshotMisses != 4 || st.SnapshotHits != 1 {
		t.Fatalf("snapshot misses %d, hits %d; want 4, 1", st.SnapshotMisses, st.SnapshotHits)
	}
}

// TestSchedulePendingRunsInSubmissionOrder queues eleven applications on a
// cluster with no nodes, cancels the first, and then lets one node with a
// single slot register: the periodic pass must give the slot to the earliest
// pending submission, c-app-2, and not to c-app-10, which sorts first as text.
func TestSchedulePendingRunsInSubmissionOrder(t *testing.T) {
	o := orb.New()
	g := grm.New("c", sim.NewVirtualClock(), o)
	t.Cleanup(func() { g.Stop(); o.Close() })
	granted := false
	mux := orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			var e orb.Encoder
			protocol.ReserveReply{Granted: !granted, ReservationID: "rsv"}.Encode(&e)
			granted = true
			return &e, nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			_, err := protocol.DecodeExecuteRequest(req)
			return &orb.Encoder{}, err
		})
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.LRMKey, mux); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("slot", adapter)
	if err != nil {
		t.Fatal(err)
	}

	var ids []string
	for i := 0; i < 11; i++ {
		id, err := g.Submit(admitSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := g.CancelApp(ids[0]); err != nil {
		t.Fatal(err)
	}
	grmAdapter := orb.NewAdapter()
	if err := grmAdapter.Register(protocol.GRMKey, g.Servant()); err != nil {
		t.Fatal(err)
	}
	grmEP, err := o.BindLoopback("c", grmAdapter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.NewGRMClient(o, orb.ObjectRef{Endpoint: grmEP, Key: protocol.GRMKey}).Update(protocol.NodeStatus{
		NodeID:    "slot",
		LRMRef:    orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey},
		Dedicated: true,
		Capacity:  resource.Vector{MIPS: 1000, RAMMB: 1024},
		GridFree:  resource.Vector{MIPS: 1000, RAMMB: 1024},
	}); err != nil {
		t.Fatal(err)
	}
	g.SchedulePending()

	var running []string
	for _, id := range ids {
		st, err := g.AppStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tasks[0].State == protocol.TaskRunning {
			running = append(running, id)
		}
	}
	if len(running) != 1 || running[0] != ids[1] {
		t.Fatalf("running after the pass: %v, want [%s]", running, ids[1])
	}
}

// TestConcurrentSubmitTraderChurnStress races asynchronous submissions
// against trader writes: while submitters flood the admission queue, churn
// goroutines export and withdraw extra offers, which no application's
// constraint matches (they have none of a node's properties), forcing
// snapshot invalidations in the batch matcher mid-flight. The seed varies the
// interleaving via the submit partitioning.
func TestConcurrentSubmitTraderChurnStress(t *testing.T) {
	seeds.Run(t, concurrentSubmitTraderChurnStress)
}

func concurrentSubmitTraderChurnStress(t *testing.T, seed int64) {
	const total = 120
	submitters := 3 + int(seed%4) // 3..6 goroutines: 4, 6 and 5 for seeds 1, 7 and 42
	f := newAdmitFixture(t, 16, nil,
		grm.WithAsyncAdmission(), grm.WithAdmissionLimit(total), grm.WithAdmissionBatch(8))

	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := f.g.Submit(admitSpec(i)); err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
			}
		}()
	}
	stopChurn := make(chan struct{})
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := f.g.Trader()
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				ref := orb.ObjectRef{
					Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("churn-%d-%d", c, i)},
					Key:      "x",
				}
				place, err := tr.ExportKeyed(trading.Offer{
					Ref:        ref,
					Properties: constraint.Properties{"n": constraint.Number(float64(i))}.Record(),
				})
				if err != nil {
					t.Errorf("churn export: %v", err)
					return
				}
				if !tr.Withdraw(place) {
					t.Error("churn withdraw removed nothing")
					return
				}
			}
		}(c)
	}

	f.waitPlaced(t, total)
	close(stopChurn)
	wg.Wait()

	st := f.g.Stats()
	if st.AdmissionQueued != total || st.AdmissionRejected != 0 {
		t.Fatalf("queued/rejected = %d/%d, want %d/0", st.AdmissionQueued, st.AdmissionRejected, total)
	}
	if st.AdmissionQueueDepth != 0 || st.SchedulerBatches == 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
	if st.MaxBatchSize > 8 {
		t.Fatalf("MaxBatchSize = %d exceeds configured batch 8", st.MaxBatchSize)
	}
}

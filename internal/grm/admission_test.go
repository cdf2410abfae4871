package grm_test

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// admitFixture is a minimal admission-pipeline harness: a GRM whose trader
// is primed with stub node offers, every reservation answered by reserveFn —
// so tests control exactly when the drainer's batch work completes.
type admitFixture struct {
	o *orb.ORB
	g *grm.GRM
}

func newAdmitFixture(t *testing.T, nodes int, reserveFn func(), opts ...grm.Option) *admitFixture {
	t.Helper()
	o := orb.New()
	g := grm.New("admit", sim.NewVirtualClock(), o, opts...)

	adapter := orb.NewAdapter()
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
	if err := adapter.Register(protocol.LRMKey, mux); err != nil {
		t.Fatal(err)
	}
	batch := make([]trading.Offer, nodes)
	for i := range batch {
		name := fmt.Sprintf("stub-%d", i)
		ep, err := o.BindLoopback(name, adapter)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = trading.Offer{
			ServiceType: grm.NodeStatusType,
			Ref:         orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey},
			Properties: constraint.Properties{
				grm.PropNode:      constraint.String(name),
				grm.PropMIPSFree:  constraint.Number(1000),
				grm.PropRAMFree:   constraint.Number(1024),
				grm.PropDedicated: constraint.Bool(true),
			}.Record(),
		}
	}
	if _, err := g.Trader().ExportBatch(batch); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Stop(); o.Close() })
	return &admitFixture{o: o, g: g}
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

// TestConcurrentSubmitTraderChurnStress races asynchronous submissions
// against trader writes (the satellite stress required by the PR): while
// submitters flood the admission queue, churn goroutines export and
// withdraw extra offers, forcing snapshot invalidations in the batch
// matcher mid-flight. CHAOS_SEED varies the interleaving via the submit
// partitioning, mirroring the seeded suites in `make chaos`.
func TestConcurrentSubmitTraderChurnStress(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	const total = 120
	submitters := 3 + int(seed%5) // 3..7 goroutines, seed-dependent split
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
				id, err := tr.Export(trading.Offer{
					ServiceType: "Churn",
					Ref: orb.ObjectRef{
						Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("churn-%d-%d", c, i)},
						Key:      "x",
					},
					Properties: constraint.Properties{"n": constraint.Number(float64(i))}.Record(),
				})
				if err != nil {
					t.Errorf("churn export: %v", err)
					return
				}
				if err := tr.Withdraw(id); err != nil {
					t.Errorf("churn withdraw: %v", err)
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

package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// sizes fixes how much work one round of each workload is. The full sizes
// make a round between a fifth of a second and a second on the 2-core
// reference host; -quick shrinks everything so the self-test runs in seconds.
type sizes struct {
	nodes     int // offers in the loopback fleets
	endpoints int // loopback endpoints backing them (binding is O(n) each)

	missUpdates int // sched_miss: updates before each of a deck's submits

	bursts       int // sched_batch: gated bursts per round
	burst        int // submits per burst, whole decks: one admission batch
	batchUpdates int // updates after each burst is drained

	churnBlocks  int // update_churn: (updates, submit) blocks per round
	churnUpdates int // updates per block

	tcpSweeps     int // tcp_lifecycle: SendUpdate sweeps over the 32 LRMs
	tcpLifecycles int // full lifecycles per round
	tcpWarm       int // warm-up rounds: enough lifecycles to dial every connection
}

var fullSizes = sizes{
	nodes: 10000, endpoints: 2048,
	missUpdates: 128,
	bursts:      2, burst: grm.DefaultAdmissionBatch, batchUpdates: 2048,
	churnBlocks: 2, churnUpdates: 10000,
	tcpSweeps: 16, tcpLifecycles: 500, tcpWarm: 4,
}

var quickSizes = sizes{
	nodes: 1000, endpoints: 256,
	missUpdates: 8,
	bursts:      1, burst: grm.DefaultAdmissionBatch, batchUpdates: 64,
	churnBlocks: 2, churnUpdates: 500,
	tcpSweeps: 1, tcpLifecycles: 48, tcpWarm: 1,
}

// counters are the program-side totals of one pass. Work is deterministic, so
// every pass of a run — and every run with the same seed — must reproduce
// them exactly; the determinism guard fails the run otherwise.
type counters struct {
	TasksPlaced       int    `json:"tasks_placed"`
	PlacementFailures int    `json:"placement_failures"`
	NegotiationRounds int    `json:"negotiation_rounds"`
	SnapshotHits      int    `json:"snapshot_hits"`
	SnapshotMisses    int    `json:"snapshot_misses"`
	SchedulerBatches  int    `json:"scheduler_batches"`
	QueuePeak         int    `json:"queue_peak"`
	UpdatesReceived   int    `json:"updates_received"`
	RPCs              int64  `json:"rpcs"`
	BytesIn           int64  `json:"bytes_in"`
	BytesOut          int64  `json:"bytes_out"`
	InputsHash        uint64 `json:"inputs_hash"`
}

func countersOf(g *grm.GRM, m *meter, inputs uint64) counters {
	st := g.Stats()
	return counters{
		TasksPlaced:       st.TasksPlaced,
		PlacementFailures: st.PlacementFailures,
		NegotiationRounds: st.NegotiationRounds,
		SnapshotHits:      st.SnapshotHits,
		SnapshotMisses:    st.SnapshotMisses,
		SchedulerBatches:  st.SchedulerBatches,
		QueuePeak:         st.AdmissionPeakDepth,
		UpdatesReceived:   st.UpdatesReceived,
		RPCs:              m.rpcs.Load(),
		BytesIn:           m.bytesIn.Load(),
		BytesOut:          m.bytesOut.Load(),
		InputsHash:        inputs,
	}
}

// bench is one workload set up and ready to run rounds.
type bench interface {
	// round runs round id (0 = warm-up) and fills rs.
	round(id int, rs *roundSample)
	// finish stops the program side and returns the oracle's violations.
	finish() []string
	counters() counters
	// tally is operations attempted and failed so far.
	tally() (attempted, failed int)
	// warmRounds is how many unmeasured rounds end this workload's set-up.
	warmRounds() int
	// probes measures the layer entry points against this fleet's inputs.
	probes(out map[string]float64)
	close()
}

// stubLRM is the servant behind every node of a loopback fleet: it decodes
// real Reserve/Execute requests and grants them all, so placements never
// change what the fleet offers and the steady state is stationary.
type stubLRM struct {
	reserves atomic.Int64
	executes atomic.Int64
	// target is the execute count at which done is signalled: the driver's
	// "last placement of the burst" event.
	target atomic.Int64
	done   chan struct{}
}

func (s *stubLRM) servant() orb.Servant {
	return orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			s.reserves.Add(1)
			return grantReply(), nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeExecuteRequest(req); err != nil {
				return nil, err
			}
			if s.executes.Add(1) == s.target.Load() {
				s.done <- struct{}{}
			}
			return &orb.Encoder{}, nil
		})
}

func grantReply() *orb.Encoder {
	var e orb.Encoder
	protocol.ReserveReply{Granted: true, ReservationID: "rsv"}.Encode(&e)
	return &e
}

// gateLRM is the determinism fixture of sched_batch_10k: the one node only
// the gate application matches. Its Reserve parks the admission drainer
// until the driver has queued the whole burst, so batch boundaries depend on
// the queue's contents and never on goroutine timing.
type gateLRM struct {
	stub    *stubLRM
	entered chan struct{}
	release chan struct{}
}

func (g *gateLRM) servant() orb.Servant {
	return orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			g.stub.reserves.Add(1)
			g.entered <- struct{}{}
			<-g.release
			return grantReply(), nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeExecuteRequest(req); err != nil {
				return nil, err
			}
			g.stub.executes.Add(1)
			return &orb.Encoder{}, nil
		})
}

// The gate node offers less than any class asks for and the gate
// application asks for less than that.
var (
	gateFree  = resource.Vector{MIPS: 60, RAMMB: 40}
	gateAlloc = resource.Vector{MIPS: 50, RAMMB: 32}
)

const (
	gateOS  = "gateos"
	gateKey = "gate"
	pingKey = "ping"
	opPing  = "ping"
)

// pingServant answers the no-op the ORB probes time.
func pingServant() orb.Servant {
	return orb.NewOpMux().Handle(opPing, func(string, *orb.Decoder) (*orb.Encoder, error) {
		return &orb.Encoder{}, nil
	})
}

// stubFleet is the fixture of the three 10⁴-node workloads: one GRM and one
// ASCT on a loopback ORB, the fleet registered through the real Information
// Update Protocol, every node backed by a stubLRM.
type stubFleet struct {
	kind   string
	sz     sizes
	orb    *orb.ORB
	clock  *sim.VirtualClock
	grm    *grm.GRM
	client *protocol.GRMClient
	tool   *asct.Tool
	grmRef orb.ObjectRef
	m      *meter
	tr     *tracer
	stub   *stubLRM
	gate   *gateLRM

	rng    *sim.RNG
	nodes  []nodeRec
	order  []int // seed-shuffled update order, walked round-robin
	cursor int
	deck   []int // one deck's fixed composition
	burst  []int // scratch: the classes of the current round's submits
	inputs uint64

	submits   int // applications submitted, gate applications included
	updates   int
	failed    int
	attempted int
}

func newStubFleet(kind string, seed int64, sz sizes, tr *tracer) (*stubFleet, error) {
	f := &stubFleet{
		kind:  kind,
		sz:    sz,
		orb:   orb.New(),
		clock: sim.NewVirtualClock(),
		m:     &meter{tr: tr},
		tr:    tr,
		stub:  &stubLRM{done: make(chan struct{}, 1)},
		rng:   sim.NewRNG(seed),
		deck:  zipfDeck(),
	}
	var opts []grm.Option
	if kind == "sched_batch_10k" {
		opts = append(opts, grm.WithAsyncAdmission())
		f.gate = &gateLRM{stub: f.stub, entered: make(chan struct{}), release: make(chan struct{})}
	}
	f.grm = grm.New("bench", f.clock, f.orb, opts...)

	grmAdapter := orb.NewAdapter()
	if err := grmAdapter.Register(protocol.GRMKey, f.m.wrap(layerGRM, f.grm.Servant())); err != nil {
		return nil, err
	}
	if err := grmAdapter.Register(pingKey, pingServant()); err != nil {
		return nil, err
	}
	grmEP, err := f.orb.BindLoopback("grm", grmAdapter)
	if err != nil {
		return nil, err
	}
	f.grmRef = orb.ObjectRef{Endpoint: grmEP, Key: protocol.GRMKey}
	f.client = protocol.NewGRMClient(f.orb, f.grmRef)
	f.tool = asct.New(f.orb, f.grmRef, f.clock)

	// Nodes beyond the endpoint cap share endpoints under distinct object
	// keys: the trader keys offers by reference, so every node still needs
	// its own.
	lrmAdapter := orb.NewAdapter()
	lrm := f.m.wrap(layerStub, f.stub.servant())
	keys := (sz.nodes + sz.endpoints - 1) / sz.endpoints
	for k := 0; k < keys; k++ {
		if err := lrmAdapter.Register(fmt.Sprintf("%s%d", protocol.LRMKey, k), lrm); err != nil {
			return nil, err
		}
	}
	if f.gate != nil {
		if err := lrmAdapter.Register(gateKey, f.m.wrap(layerStub, f.gate.servant())); err != nil {
			return nil, err
		}
	}
	eps := make([]orb.Endpoint, min(sz.nodes, sz.endpoints))
	for i := range eps {
		if eps[i], err = f.orb.BindLoopback(fmt.Sprintf("n%d", i), lrmAdapter); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		f.orb.SetInterceptor(tr)
	}

	now := f.clock.Now()
	f.nodes = make([]nodeRec, sz.nodes, sz.nodes+1)
	for i := range f.nodes {
		ref := orb.ObjectRef{Endpoint: eps[i%len(eps)], Key: fmt.Sprintf("%s%d", protocol.LRMKey, i/len(eps))}
		f.nodes[i] = newNode(f.rng, i, ref)
	}
	f.order = f.rng.Perm(sz.nodes)
	for i := range f.nodes {
		f.inputs = hashMix(f.inputs, int(f.nodes[i].status.Capacity.MIPS))
	}
	if f.gate != nil {
		rec := newNode(f.rng, sz.nodes, orb.ObjectRef{Endpoint: eps[0], Key: gateKey})
		rec.status.Platform.OS = gateOS
		f.nodes = append(f.nodes, rec)
	}
	for i := range f.nodes {
		redraw(f.rng, &f.nodes[i], now)
		if f.gate != nil && i == sz.nodes {
			// Below every class's thresholds: no burst application may be
			// offered the node whose Reserve blocks.
			f.nodes[i].status.GridFree = gateFree
		}
		if _, err := f.client.Update(f.nodes[i].status); err != nil {
			return nil, fmt.Errorf("registering %s: %w", f.nodes[i].status.NodeID, err)
		}
	}
	return f, nil
}

// sendUpdates re-describes the next n nodes of the update order and pushes
// each through the Information Update Protocol.
func (f *stubFleet) sendUpdates(n int) time.Duration {
	now := f.clock.Now()
	t0 := time.Now()
	for k := 0; k < n; k++ {
		rec := &f.nodes[f.order[f.cursor]]
		f.cursor = (f.cursor + 1) % len(f.order)
		redraw(f.rng, rec, now)
		if _, err := f.client.Update(rec.status); err != nil {
			f.failed++
		}
	}
	f.updates += n
	f.attempted += n
	return time.Since(t0)
}

// submit sends one application of the class through the ASCT and returns how
// long the call took: in synchronous admission, submit → placed.
func (f *stubFleet) submit(class int) time.Duration {
	f.submits++
	f.attempted++
	f.tr.setApp(f.submits)
	b := classes[class].builder(fmt.Sprintf("c%02d-%d", class, f.submits))
	t0 := time.Now()
	sp := f.tr.begin(layerASCT, "submit")
	_, err := f.tool.Submit(b)
	f.tr.end(sp, 0, 0)
	d := time.Since(t0)
	if err != nil {
		f.failed++
	}
	return d
}

// shuffled fills f.burst with decks decks shuffled together and folds the
// order into the inputs hash. Whole decks only: every round, and every
// admission batch of sched_batch_10k, holds the same classes and so costs
// the same number of snapshot misses whatever the seed.
func (f *stubFleet) shuffled(decks int) []int {
	f.burst = f.burst[:0]
	for d := 0; d < decks; d++ {
		f.burst = append(f.burst, f.deck...)
	}
	f.rng.Shuffle(len(f.burst), func(i, j int) { f.burst[i], f.burst[j] = f.burst[j], f.burst[i] })
	for _, c := range f.burst {
		f.inputs = hashMix(f.inputs, c)
	}
	return f.burst
}

func (f *stubFleet) round(id int, rs *roundSample) {
	f.tr.setRound(id)
	f.clock.Advance(100 * time.Millisecond)
	r0, b0 := f.m.rpcs.Load(), f.m.bytesIn.Load()+f.m.bytesOut.Load()
	var updRPCs, updBytes int64
	updatePhase := func(n int) {
		r, b := f.m.rpcs.Load(), f.m.bytesIn.Load()+f.m.bytesOut.Load()
		rs.addUpdates(f.sendUpdates(n), n)
		updRPCs += f.m.rpcs.Load() - r
		updBytes += f.m.bytesIn.Load() + f.m.bytesOut.Load() - b
	}
	switch f.kind {
	case "sched_miss_10k":
		for i, class := range f.shuffled(1) {
			if i > 0 && i%4 == 0 {
				rs.cut()
			}
			updatePhase(f.sz.missUpdates)
			rs.addPlaced(f.submit(class), 1)
		}
	case "update_churn_10k":
		for block := 0; block < f.sz.churnBlocks; block++ {
			if block > 0 {
				rs.cut()
			}
			updatePhase(f.sz.churnUpdates)
			rs.cut()
			// The most popular class, every time: with so few submits a
			// shuffled draw would change the round's work.
			rs.addPlaced(f.submit(0), 1)
		}
	case "sched_batch_10k":
		for b := 0; b < f.sz.bursts; b++ {
			if b > 0 {
				rs.cut()
			}
			rs.addPlaced(f.burstRound(f.shuffled(f.sz.burst/deckSize)), f.sz.burst)
			rs.cut()
			updatePhase(f.sz.batchUpdates)
		}
	}
	rs.rpcs = f.m.rpcs.Load() - r0 - updRPCs
	rs.bytes = f.m.bytesIn.Load() + f.m.bytesOut.Load() - b0 - updBytes
}

// burstRound runs one gated burst and returns first Submit → last placement.
func (f *stubFleet) burstRound(burst []int) time.Duration {
	batches := f.grm.Stats().SchedulerBatches
	f.stub.target.Store(f.stub.executes.Load() + 1 + int64(len(burst)))

	// Park the drainer inside the gate node's Reserve. Nothing else is
	// queued, so the gate application is a batch of its own.
	f.submits++
	f.attempted++
	gate := asct.NewApplication(fmt.Sprintf("gate-%d", f.submits)).Sequential(1000).
		Allocate(gateAlloc).OnPlatform(f.nodes[len(f.nodes)-1].status.Platform)
	if _, err := f.tool.Submit(gate); err != nil {
		f.failed++
		return 0
	}
	<-f.gate.entered

	t0 := time.Now()
	enq := f.tr.beginRoot(layerBench, "enqueue")
	for _, class := range burst {
		f.submit(class)
	}
	f.tr.end(enq, 0, 0)
	drain := f.tr.beginRoot(layerBench, "drain")
	f.gate.release <- struct{}{}
	<-f.stub.done
	d := time.Since(t0)
	f.tr.end(drain, 0, 0)

	// The last Execute has returned but the drainer may still be closing
	// its batch; the next phase must not start before the books are shut.
	want := batches + 1 + (len(burst)+grm.DefaultAdmissionBatch-1)/grm.DefaultAdmissionBatch
	for f.grm.Stats().SchedulerBatches < want {
		runtime.Gosched()
	}
	return d
}

// warmRounds: one round submits every class, which compiles every constraint
// and grows the heap to its working size.
func (f *stubFleet) warmRounds() int { return 1 }

func (f *stubFleet) counters() counters { return countersOf(f.grm, f.m, f.inputs) }

func (f *stubFleet) tally() (int, int) { return f.attempted, f.failed }

// finish stops the GRM and checks the pass against the oracle.
func (f *stubFleet) finish() []string {
	f.grm.Stop()
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	st := f.grm.Stats()
	if st.TasksPlaced != f.submits || st.PlacementFailures != 0 {
		fail("placed %d of %d submits, %d placement failures", st.TasksPlaced, f.submits, st.PlacementFailures)
	}
	if got := f.stub.executes.Load(); got != int64(f.submits) {
		fail("stub LRMs executed %d tasks, want %d", got, f.submits)
	}
	if st.UpdatesReceived != f.updates+len(f.nodes) {
		fail("GRM received %d updates, want %d", st.UpdatesReceived, f.updates+len(f.nodes))
	}
	if got := f.grm.KnownNodes(); got != len(f.nodes) {
		fail("GRM knows %d nodes, want %d", got, len(f.nodes))
	}
	for c, class := range classes {
		want := 0
		for i := range f.nodes {
			if class.matches(&f.nodes[i].status) {
				want++
			}
		}
		offers, err := f.grm.Trader().SelectShared(trading.Query{
			ServiceType: grm.NodeStatusType, Constraint: class.constraintText()})
		if err != nil || len(offers) != want || want == 0 {
			fail("class %d: trader matched %d offers (err %v), brute force %d", c, len(offers), err, want)
		}
	}
	ids, err := f.tool.ListApps()
	if err != nil || len(ids) != f.submits {
		fail("GRM lists %d applications (err %v), want %d", len(ids), err, f.submits)
	}
	for _, id := range ids {
		as, err := f.tool.Handle(id).Status()
		if err != nil || len(as.Tasks) != 1 || as.Tasks[0].State != protocol.TaskRunning || as.Tasks[0].NodeID == "" {
			fail("application %s is not placed (err %v): %+v", id, err, as.Tasks)
			break
		}
	}
	return bad
}

func (f *stubFleet) close() {
	f.grm.Stop()
	f.orb.Close()
}

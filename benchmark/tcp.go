package main

import (
	"fmt"
	"time"

	"integrade/internal/asct"
	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

const (
	tcpNodes = 32
	// Each LAN holds two nodes and each node two tasks, so an application of
	// four tasks pinned to a LAN fills it exactly: the third Reserve on the
	// first node is refused and placement moves on, which exercises the
	// protocol's negotiation rounds with no failures.
	tcpTaskMIPS = 900
	tcpTaskRAM  = 256
	tcpNodeMIPS = 2000
	tcpTaskWork = 9 // MI: 10 ms at the allocated rate
	tcpTick     = 20 * time.Millisecond
)

// appShape is one lifecycle's application: its kind and the LAN it asks for.
type appShape struct {
	kind protocol.AppKind
	lan  int
}

// tcpHost is one grid node of the TCP fleet, on its own ORB and listener.
type tcpHost struct {
	orb  *orb.ORB
	srv  *orb.Server
	node *node.Node
	lrm  *lrm.LRM
}

// tcpFleet is the fixture of tcp_lifecycle_32: the components as the
// binaries under cmd/ deploy them, every hop a real TCP connection on
// 127.0.0.1, driven by one closed-loop client on a hand-advanced clock.
type tcpFleet struct {
	sz      sizes
	clock   *sim.VirtualClock
	grmORB  *orb.ORB
	grmSrv  *orb.Server
	grm     *grm.GRM
	toolORB *orb.ORB
	tool    *asct.Tool
	hosts   []*tcpHost
	byNode  map[string]*tcpHost
	m       *meter
	tr      *tracer

	rng    *sim.RNG
	shapes []appShape // one round's fixed composition
	inputs uint64

	lifecycles int
	tasks      int
	updates    int
	attempted  int
	failed     int
}

func newTCPFleet(seed int64, sz sizes, tr *tracer) (f *tcpFleet, err error) {
	f = &tcpFleet{
		sz:      sz,
		clock:   sim.NewVirtualClock(),
		grmORB:  orb.New(),
		toolORB: orb.New(),
		byNode:  make(map[string]*tcpHost),
		m:       &meter{tr: tr},
		tr:      tr,
		rng:     sim.NewRNG(seed),
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.grm = grm.New("bench", f.clock, f.grmORB)
	adapter := orb.NewAdapter()
	if err = adapter.Register(protocol.GRMKey, f.m.wrap(layerGRM, f.grm.Servant())); err != nil {
		return nil, err
	}
	if err = adapter.Register(pingKey, pingServant()); err != nil {
		return nil, err
	}
	if f.grmSrv, err = f.grmORB.ListenTCP("127.0.0.1:0", adapter); err != nil {
		return nil, err
	}
	grmRef := f.grmSrv.Ref(protocol.GRMKey)
	f.tool = asct.New(f.toolORB, grmRef, f.clock)

	for i := 0; i < tcpNodes; i++ {
		h := &tcpHost{orb: orb.New()}
		f.hosts = append(f.hosts, h)
		spec := resource.MachineSpec{
			Platform:  platforms[i%len(platforms)],
			Capacity:  resource.Vector{MIPS: float64(tcpNodeMIPS + i), RAMMB: 2048, DiskMB: 50000, NetMbps: 1000},
			LANID:     fmt.Sprintf("lan%02d", i/2),
			Dedicated: true,
		}
		id := fmt.Sprintf("n%02d", i)
		if h.node, err = node.New(id, spec, nil, ncc.Generous(), f.clock.Now()); err != nil {
			return nil, err
		}
		lrmAdapter := orb.NewAdapter()
		if h.srv, err = h.orb.ListenTCP("127.0.0.1:0", lrmAdapter); err != nil {
			return nil, err
		}
		h.lrm = lrm.New(h.node, f.clock, h.orb, h.srv.Ref(protocol.LRMKey), grmRef)
		if err = lrmAdapter.Register(protocol.LRMKey, f.m.wrap(layerLRM, h.lrm.Servant())); err != nil {
			return nil, err
		}
		f.byNode[id] = h
	}
	if tr != nil {
		f.grmORB.SetInterceptor(tr)
		f.toolORB.SetInterceptor(tr)
		for _, h := range f.hosts {
			h.orb.SetInterceptor(tr)
		}
	}

	// One round's composition: 5/8 sequential, 2/8 parametric×4, 1/8 BSP×4,
	// LANs dealt round-robin. Rounds reshuffle it.
	for i := 0; i < sz.tcpLifecycles; i++ {
		kind := protocol.AppSequential
		switch i % 8 {
		case 5, 6:
			kind = protocol.AppParametric
		case 7:
			kind = protocol.AppBSP
		}
		f.shapes = append(f.shapes, appShape{kind: kind, lan: (i / 8) % (tcpNodes / 2)})
	}
	return f, nil
}

// sendUpdates sweeps the Information Update Protocol over every LRM.
func (f *tcpFleet) sendUpdates(sweeps int) time.Duration {
	t0 := time.Now()
	for s := 0; s < sweeps; s++ {
		for _, h := range f.hosts {
			f.refresh(h)
		}
	}
	return time.Since(t0)
}

// refresh is one LRM's SyncTasks + SendUpdate, counted as one update.
func (f *tcpFleet) refresh(h *tcpHost) {
	before := h.lrm.Stats().UpdatesSent
	sp := f.tr.begin(layerLRM, "sync")
	h.lrm.SyncTasks()
	f.tr.end(sp, 0, 0)
	sp = f.tr.begin(layerLRM, "sendupdate")
	h.lrm.SendUpdate()
	f.tr.end(sp, 0, 0)
	f.updates++
	f.attempted++
	if h.lrm.Stats().UpdatesSent != before+1 {
		f.failed++
	}
}

// builder describes the application of one lifecycle and returns its task
// count.
func (f *tcpFleet) builder(shape appShape, name string) (*asct.Builder, int) {
	b := asct.NewApplication(name).
		Allocate(resource.Vector{MIPS: tcpTaskMIPS, RAMMB: tcpTaskRAM}).
		Constraint(fmt.Sprintf("lan == 'lan%02d'", shape.lan))
	switch shape.kind {
	case protocol.AppParametric:
		return b.Parametric(4, tcpTaskWork), 4
	case protocol.AppBSP:
		return b.BSP(4, tcpTaskWork), 4
	default:
		return b.Sequential(tcpTaskWork), 1
	}
}

// lifecycle runs one application from submission to Done and returns how
// long Tool.Submit took (submit → placed: admission is synchronous).
func (f *tcpFleet) lifecycle(shape appShape) time.Duration {
	f.lifecycles++
	f.attempted++
	f.tr.setApp(f.lifecycles)
	b, ntasks := f.builder(shape, fmt.Sprintf("%s-%d", shape.kind, f.lifecycles))
	f.tasks += ntasks

	life := f.tr.begin(layerBench, "lifecycle")
	defer f.tr.end(life, 0, 0)
	t0 := time.Now()
	sp := f.tr.begin(layerASCT, "submit")
	h, err := f.tool.Submit(b)
	f.tr.end(sp, 0, 0)
	placed := time.Since(t0)
	if err != nil {
		f.failed++
		return placed
	}
	st, err := h.Status()
	if err != nil {
		f.failed++
		return placed
	}
	f.clock.Advance(tcpTick)
	var last *tcpHost
	for _, task := range st.Tasks {
		// Tasks are placed node by node, so one host's tasks are adjacent.
		if host := f.byNode[task.NodeID]; host != nil && host != last {
			f.refresh(host)
			last = host
		}
	}
	st, err = h.Status()
	if err != nil || !st.Done() || len(st.Tasks) != ntasks {
		f.failed++
	}
	return placed
}

func (f *tcpFleet) round(id int, rs *roundSample) {
	f.tr.setRound(id)
	f.tr.setApp(0)
	rs.addUpdates(f.sendUpdates(f.sz.tcpSweeps), f.sz.tcpSweeps*len(f.hosts))

	f.rng.Shuffle(len(f.shapes), func(i, j int) { f.shapes[i], f.shapes[j] = f.shapes[j], f.shapes[i] })
	r0, b0 := f.m.rpcs.Load(), f.m.bytesIn.Load()+f.m.bytesOut.Load()
	for i, shape := range f.shapes {
		if i%50 == 0 {
			rs.cut()
		}
		f.inputs = hashMix(f.inputs, int(shape.kind)*tcpNodes+shape.lan)
		t0 := time.Now()
		placed := f.lifecycle(shape)
		whole := time.Since(t0)
		rs.addPlaced(placed, 1)
		rs.cur().total += whole - placed
	}
	rs.rpcs = f.m.rpcs.Load() - r0
	rs.bytes = f.m.bytesIn.Load() + f.m.bytesOut.Load() - b0
}

func (f *tcpFleet) warmRounds() int { return f.sz.tcpWarm }

func (f *tcpFleet) counters() counters { return countersOf(f.grm, f.m, f.inputs) }

func (f *tcpFleet) tally() (int, int) { return f.attempted, f.failed }

// finish checks the pass against the oracle: everything placed and done,
// nothing left committed or reserved on any node.
func (f *tcpFleet) finish() []string {
	f.grm.Stop()
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	st := f.grm.Stats()
	if st.TasksPlaced != f.tasks || st.TasksDone != f.tasks || st.PlacementFailures != 0 {
		fail("placed %d and finished %d of %d tasks, %d placement failures",
			st.TasksPlaced, st.TasksDone, f.tasks, st.PlacementFailures)
	}
	if got := f.grm.KnownNodes(); got != len(f.hosts) {
		fail("GRM knows %d nodes, want %d", got, len(f.hosts))
	}
	now := f.clock.Now()
	for _, h := range f.hosts {
		ledger := h.node.Ledger()
		if c := ledger.Committed(); !c.IsZero() {
			fail("node %s still has %v committed", h.node.ID(), c)
		}
		if out := ledger.Outstanding(now); len(out) != 0 {
			fail("node %s still holds %d reservations", h.node.ID(), len(out))
		}
	}
	return bad
}

func (f *tcpFleet) close() {
	if f.grm != nil {
		f.grm.Stop()
	}
	for _, h := range f.hosts {
		if h.lrm != nil {
			h.lrm.Stop()
		}
		if h.srv != nil {
			_ = h.srv.Close()
		}
		h.orb.Close()
	}
	if f.grmSrv != nil {
		_ = f.grmSrv.Close()
	}
	f.grmORB.Close()
	f.toolORB.Close()
}

package grm_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
)

// opCounter is an orb.Interceptor that counts deliveries per operation.
type opCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *opCounter) Intercept(_ orb.Endpoint, _, op string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	c.n[op]++
	c.mu.Unlock()
	return next()
}

func (c *opCounter) count(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[op]
}

// slotAlloc makes a 1000-MIPS node a two-slot node.
var slotAlloc = resource.Vector{MIPS: 500, RAMMB: 64}

func slotApp(kind protocol.AppKind, tasks int) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:        fmt.Sprintf("%s-%d", kind, tasks),
		Kind:        kind,
		NumTasks:    tasks,
		WorkPerTask: 600_000,
		Alloc:       slotAlloc,
	}
}

// TestNegotiationRPCCounts is the ratchet on what a placement costs in RPCs,
// counted on the wire between a GRM and real LRMs: one Reserve and one Execute
// per node used, whatever the number of tasks. The per-task loop this replaced
// spent 6 + 4 on the parametric row and 5 + 4 on the BSP row, and on the bag —
// E9's 40 tasks on 20 two-slot nodes — 264 Reserves, 248 of them refused, to
// place 16 tasks inside Submit.
func TestNegotiationRPCCounts(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		nodes                       int
		spec                        protocol.ApplicationSpec
		reserves, executes, release int
		placed                      int
	}{
		{"sequential", 2, slotApp(protocol.AppSequential, 1), 1, 1, 0, 1},
		{"parametric x4 on two nodes", 2, slotApp(protocol.AppParametric, 4), 2, 2, 0, 4},
		{"BSP x4 on two nodes", 2, slotApp(protocol.AppBSP, 4), 2, 2, 0, 4},
		{"bag of 40 on twenty nodes", 20, slotApp(protocol.AppParametric, 40), 20, 20, 0, 40},
		{"BSP x5 cannot fit two nodes", 2, slotApp(protocol.AppBSP, 5), 2, 0, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, dedicated(tc.nodes, 1000))
			ops := &opCounter{n: make(map[string]int)}
			c.o.SetInterceptor(ops)
			id := c.submit(tc.spec)
			c.o.SetInterceptor(nil)

			if r, e, rel := ops.count(protocol.OpReserve), ops.count(protocol.OpExecute), ops.count(protocol.OpRelease); r != tc.reserves || e != tc.executes || rel != tc.release {
				t.Errorf("Submit cost %d Reserves, %d Executes, %d Releases, want %d, %d, %d", r, e, rel, tc.reserves, tc.executes, tc.release)
			}
			running := 0
			for _, task := range c.status(id).Tasks {
				if task.State == protocol.TaskRunning {
					running++
				}
			}
			st := c.g.Stats()
			if running != tc.placed || st.TasksPlaced != tc.placed {
				t.Errorf("%d tasks running, %d placed, want %d", running, st.TasksPlaced, tc.placed)
			}
			if st.NegotiationRounds != tc.reserves {
				t.Errorf("NegotiationRounds = %d, want %d", st.NegotiationRounds, tc.reserves)
			}
			if tc.placed == tc.spec.NumTasks && st.Refusals != 0 {
				t.Errorf("%d refusals on a fleet that exactly fits", st.Refusals)
			}
			started := 0
			for i, n := range c.nodes {
				if out := n.Ledger().Outstanding(c.clock.Now()); len(out) != 0 {
					t.Errorf("node %d still holds %v", i, out)
				}
				started += c.lrms[i].Stats().TasksStarted
			}
			if started != tc.placed {
				t.Errorf("LRMs started %d tasks, want %d", started, tc.placed)
			}
		})
	}
}

// executeFails wraps a real LRM servant: everything reaches it but Execute,
// which the wrapper answers with an error.
type executeFails struct{ real orb.Servant }

func (s executeFails) Dispatch(op string, req *orb.Decoder) (*orb.Encoder, error) {
	if op == protocol.OpExecute {
		return nil, orb.Errorf(orb.CodeApplication, "execute: disk full")
	}
	return s.real.Dispatch(op, req)
}

// TestFailedExecuteReleasesItsHold: a hold whose Execute fails is given back at
// once. It used to stand against the node's capacity until its one-minute TTL.
func TestFailedExecuteReleasesItsHold(t *testing.T) {
	c := newCluster(t, dedicated(1, 1000))
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.LRMKey, executeFails{c.lrms[0].Servant()}); err != nil {
		t.Fatal(err)
	}
	ep, err := c.o.BindLoopback("broken", adapter)
	if err != nil {
		t.Fatal(err)
	}
	// The node reports from the wrapper now, which moves its offer there.
	s := c.lrms[0].Status()
	c.lrms[0].Stop()
	s.LRMRef = orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}
	c.update(s)

	id := c.submit(slotApp(protocol.AppParametric, 2))
	for _, task := range c.status(id).Tasks {
		if task.State != protocol.TaskPending {
			t.Errorf("task %s is %v after a failed Execute", task.TaskID, task.State)
		}
	}
	lst := c.lrms[0].Stats()
	if lst.ReserveRequests != 1 || lst.ReserveGrants != 2 {
		t.Fatalf("the LRM answered %d Reserves with %d holds, want 1 and 2", lst.ReserveRequests, lst.ReserveGrants)
	}
	if out := c.nodes[0].Ledger().Outstanding(c.clock.Now()); len(out) != 0 {
		t.Fatalf("holds leaked after a failed Execute: %v", out)
	}
	if free := c.nodes[0].Ledger().Free(c.clock.Now()); free != c.nodes[0].Ledger().Capacity() {
		t.Fatalf("free = %v after a failed Execute, want the whole node", free)
	}
}

// scriptedLRM is the misbehaving peer of the conformance scripts below: an LRM
// servant that answers Reserve as its script says and records everything the
// GRM then does to it.
type scriptedLRM struct {
	// reply scripts the answer to a Reserve; nil grants everything asked.
	reply func(r protocol.ReserveRequest) protocol.ReserveReply
	// failExecute makes every Execute an error.
	failExecute bool

	mu       sync.Mutex
	seq      int
	asked    []int    // Count of each Reserve
	released []string // holds given back
	executed []string // holds of Executes that were accepted
	tasks    []string // tasks of Executes that were accepted
	epochs   []string // "op@epoch" of every Reserve, Execute and Cancel
}

// ids mints n fresh hold IDs.
func (s *scriptedLRM) ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		s.seq++
		out[i] = fmt.Sprintf("h%d", s.seq)
	}
	return out
}

func grantOf(ids ...string) protocol.ReserveReply {
	return protocol.ReserveReply{Granted: true, ReservationID: ids[0], More: ids[1:]}
}

func (s *scriptedLRM) Dispatch(op string, req *orb.Decoder) (*orb.Encoder, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &orb.Encoder{}
	switch op {
	case protocol.OpReserve:
		r, err := protocol.DecodeReserveRequest(req)
		if err != nil {
			return nil, orb.Errorf(orb.CodeMarshal, "reserve: %v", err)
		}
		s.asked = append(s.asked, r.Count)
		s.epochs = append(s.epochs, fmt.Sprintf("%s@%d", op, r.Epoch))
		if s.reply != nil {
			s.reply(r).Encode(e)
		} else {
			grantOf(s.ids(r.Count)...).Encode(e)
		}
	case protocol.OpExecute:
		r, err := protocol.DecodeExecuteRequest(req)
		if err != nil {
			return nil, orb.Errorf(orb.CodeMarshal, "execute: %v", err)
		}
		s.epochs = append(s.epochs, fmt.Sprintf("%s@%d", op, r.Epoch))
		if s.failExecute {
			return nil, orb.Errorf(orb.CodeApplication, "execute: no")
		}
		for _, task := range r.Tasks {
			s.executed = append(s.executed, task.ReservationID)
			s.tasks = append(s.tasks, task.TaskID)
		}
	case protocol.OpRelease:
		s.released = append(s.released, req.String())
	case protocol.OpCancel:
		_ = req.String() // the task
		s.epochs = append(s.epochs, fmt.Sprintf("%s@%d", op, req.Int()))
		e.PutF64(0)
	default:
		return nil, orb.Errorf(orb.CodeBadOperation, "scripted LRM: %s", op)
	}
	return e, nil
}

// TestScriptedLRMConformance plays misbehaving LRMs against a real GRM over
// the loopback ORB on the virtual clock. Three nodes, a the policy's first
// choice, then b, then c; c always behaves. Each script states what the GRM
// must have done: how many holds it asked each node for, which it gave back,
// which tasks run where. Under every script no task is started twice and
// every hold a node named ends either in one accepted Execute or in one
// Release, never both; the package's TestMain adds that no goroutine leaks.
func TestScriptedLRMConformance(t *testing.T) {
	type want struct {
		asked    []int
		released int
		tasks    int
	}
	for _, tc := range []struct {
		name    string
		kind    protocol.AppKind
		script  func(a, b, c *scriptedLRM)
		a, b, c want
		running int // tasks Running afterwards
	}{
		{
			name: "fewer than asked: the next candidate is asked for the remainder",
			kind: protocol.AppParametric,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(protocol.ReserveRequest) protocol.ReserveReply { return grantOf(a.ids(1)...) }
			},
			a: want{asked: []int{4}, tasks: 1}, b: want{asked: []int{3}, tasks: 3}, running: 4,
		},
		{
			name: "more than asked: the surplus is released",
			kind: protocol.AppParametric,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(r protocol.ReserveRequest) protocol.ReserveReply { return grantOf(a.ids(r.Count + 2)...) }
			},
			a: want{asked: []int{4}, released: 2, tasks: 4}, running: 4,
		},
		{
			name: "duplicate IDs: one hold, one task",
			kind: protocol.AppParametric,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(protocol.ReserveRequest) protocol.ReserveReply {
					ids := a.ids(2)
					return grantOf(ids[0], ids[0], ids[1], ids[1])
				}
			},
			a: want{asked: []int{4}, tasks: 2}, b: want{asked: []int{2}, tasks: 2}, running: 4,
		},
		{
			name: "a refusal that names holds: they are released and the node is full",
			kind: protocol.AppParametric,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(protocol.ReserveRequest) protocol.ReserveReply {
					r := grantOf(a.ids(2)...)
					r.Granted = false
					return r
				}
			},
			a: want{asked: []int{4}, released: 2}, b: want{asked: []int{4}, tasks: 4}, running: 4,
		},
		{
			name:   "Execute error: holds released, tasks placed once, elsewhere",
			kind:   protocol.AppParametric,
			script: func(a, b, c *scriptedLRM) { a.failExecute = true },
			a:      want{asked: []int{4}, released: 4}, b: want{asked: []int{4}, tasks: 4}, running: 4,
		},
		{
			name: "a gang is executed after its last grant",
			kind: protocol.AppBSP,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(protocol.ReserveRequest) protocol.ReserveReply { return grantOf(a.ids(3)...) }
			},
			a: want{asked: []int{4}, tasks: 3}, b: want{asked: []int{1}, tasks: 1}, running: 4,
		},
		{
			name: "a gang that does not fit is abandoned: nothing runs, nothing is held",
			kind: protocol.AppBSP,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(protocol.ReserveRequest) protocol.ReserveReply { return grantOf(a.ids(1)...) }
				b.reply = func(protocol.ReserveRequest) protocol.ReserveReply { return grantOf(b.ids(1)...) }
				c.reply = func(protocol.ReserveRequest) protocol.ReserveReply { return grantOf(c.ids(1)...) }
			},
			a: want{asked: []int{4}, released: 1}, b: want{asked: []int{3}, released: 1},
			c: want{asked: []int{2}, released: 1}, running: 0,
		},
		{
			name: "a gang whose Execute fails on one node keeps the others and frees that one",
			kind: protocol.AppBSP,
			script: func(a, b, c *scriptedLRM) {
				a.reply = func(protocol.ReserveRequest) protocol.ReserveReply { return grantOf(a.ids(3)...) }
				b.failExecute = true
			},
			a: want{asked: []int{4}, tasks: 3}, b: want{asked: []int{1}, released: 1}, running: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, nil, grm.WithPolicy(grm.BestFit{}))
			peers := map[string]*scriptedLRM{"a": {}, "b": {}, "c": {}}
			for i, name := range []string{"a", "b", "c"} {
				adapter := orb.NewAdapter()
				if err := adapter.Register(protocol.LRMKey, peers[name]); err != nil {
					t.Fatal(err)
				}
				ep, err := c.o.BindLoopback("scripted-"+name, adapter)
				if err != nil {
					t.Fatal(err)
				}
				c.update(windowStatus(c, name, orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}, float64(3000-1000*i)))
			}
			tc.script(peers["a"], peers["b"], peers["c"])
			spec := slotApp(tc.kind, 4)
			spec.Alloc = resource.Vector{MIPS: 100, RAMMB: 16}
			id := c.submit(spec)

			started := map[string]string{} // task -> node
			for name, w := range map[string]want{"a": tc.a, "b": tc.b, "c": tc.c} {
				p := peers[name]
				p.mu.Lock()
				if !slices.Equal(p.asked, w.asked) {
					t.Errorf("%s was asked for %v holds, want %v", name, p.asked, w.asked)
				}
				if len(p.released) != w.released {
					t.Errorf("%s had %v released, want %d", name, p.released, w.released)
				}
				if len(p.tasks) != w.tasks {
					t.Errorf("%s runs %v, want %d tasks", name, p.tasks, w.tasks)
				}
				for _, task := range p.tasks {
					if on, twice := started[task]; twice {
						t.Errorf("task %s started on %s and on %s", task, on, name)
					}
					started[task] = name
				}
				// Every hold the node named, once: executed or released.
				fate := map[string]int{}
				for _, h := range p.executed {
					fate[h]++
				}
				for _, h := range p.released {
					fate[h]++
				}
				for h, n := range fate {
					if n != 1 {
						t.Errorf("%s: hold %s was used %d times", name, h, n)
					}
				}
				if len(fate) != p.seq {
					t.Errorf("%s named %d holds, %d were executed or released", name, p.seq, len(fate))
				}
				p.mu.Unlock()
			}
			running := 0
			for _, task := range c.status(id).Tasks {
				switch task.State {
				case protocol.TaskRunning:
					running++
					if started[task.TaskID] != task.NodeID {
						t.Errorf("task %s is recorded on %q and was started on %q", task.TaskID, task.NodeID, started[task.TaskID])
					}
				case protocol.TaskPending:
					if on, ok := started[task.TaskID]; ok {
						t.Errorf("task %s is pending and was started on %s", task.TaskID, on)
					}
				default:
					t.Errorf("task %s is %v", task.TaskID, task.State)
				}
			}
			if running != tc.running || c.g.Stats().TasksPlaced != tc.running {
				t.Errorf("%d tasks running, %d placed, want %d", running, c.g.Stats().TasksPlaced, tc.running)
			}
		})
	}
}

// TestNewGRMLeadsTermOne: a GRM that never joined a replica set is the sole
// primary of term 1, and every write and reply it sends says so — Reserve,
// Execute, Cancel, the Information Update reply and its trader offers. An LRM
// therefore fences a GRM of any origin by the same rule.
func TestNewGRMLeadsTermOne(t *testing.T) {
	c := newCluster(t, nil)
	if got := c.g.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d, want 1", got)
	}
	peer := &scriptedLRM{}
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.LRMKey, peer); err != nil {
		t.Fatal(err)
	}
	ep, err := c.o.BindLoopback("scripted", adapter)
	if err != nil {
		t.Fatal(err)
	}
	s := windowStatus(c, "scripted", orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}, 1000)
	epoch, err := protocol.NewGRMClient(c.o, c.grmRef).Update(s)
	if err != nil || epoch != 1 {
		t.Fatalf("Update reply = epoch %d, %v; want 1", epoch, err)
	}
	offers := c.g.Trader().All(grm.NodeStatusType)
	if len(offers) != 1 {
		t.Fatalf("trader holds %d offers, want 1", len(offers))
	}
	if v, ok := offers[0].Properties.Property(grm.PropMgrEpoch); !ok || v != constraint.Number(1) {
		t.Fatalf("%s = %#v (present %v), want 1", grm.PropMgrEpoch, v, ok)
	}

	id := c.submit(slotApp(protocol.AppSequential, 1))
	if err := c.g.CancelApp(id); err != nil {
		t.Fatal(err)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if want := []string{"reserve@1", "execute@1", "cancel@1"}; !slices.Equal(peer.epochs, want) {
		t.Fatalf("the LRM saw %v, want %v", peer.epochs, want)
	}
}

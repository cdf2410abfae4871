package election

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"integrade/internal/chaos"
	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/testutil/leak"
)

func TestMain(m *testing.M) { leak.Main(m) }

// applied records what one member's Apply callback saw, in order.
type applied struct {
	mu      sync.Mutex
	entries []string
}

func (a *applied) add(index, term int, data []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries = append(a.entries, fmt.Sprintf("%d/%d:%s", index, term, data))
}

func (a *applied) list() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.entries))
	copy(out, a.entries)
	return out
}

// set is a replica set of n members on one loopback ORB with a chaos engine
// installed, member i bootstrapping iff i == 0.
type set struct {
	clock   *sim.VirtualClock
	engine  *chaos.Engine
	orb     *orb.ORB
	ids     []string
	refs    map[string]orb.ObjectRef
	nodes   map[string]*Node
	applies map[string]*applied
	stores  map[string]*MemoryStore
}

func newSet(t *testing.T, n int, seed int64) *set {
	t.Helper()
	clock := sim.NewVirtualClock()
	rng := sim.NewRNG(seed)
	engine := chaos.NewEngine(clock, rng)
	o := orb.New()
	o.SetInterceptor(engine)

	s := &set{
		clock:   clock,
		engine:  engine,
		orb:     o,
		nodes:   make(map[string]*Node),
		applies: make(map[string]*applied),
		stores:  make(map[string]*MemoryStore),
	}
	refs := make(map[string]orb.ObjectRef, n)
	s.refs = refs
	adapters := make(map[string]*orb.Adapter, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%d", i)
		s.ids = append(s.ids, id)
		a := orb.NewAdapter()
		ep, err := o.BindLoopback(id, a)
		if err != nil {
			t.Fatal(err)
		}
		adapters[id] = a
		refs[id] = orb.ObjectRef{Endpoint: ep, Key: ObjectKey}
	}
	for i, id := range s.ids {
		ap := &applied{}
		st := NewMemoryStore()
		s.applies[id] = ap
		s.stores[id] = st
		node := NewNode(Config{
			ID:        id,
			Peers:     refs,
			Clock:     clock,
			RNG:       rng,
			Inv:       engine.SourceInvoker(id, o),
			Store:     st,
			Apply:     ap.add,
			Bootstrap: i == 0,
		})
		s.nodes[id] = node
		if err := adapters[id].Register(ObjectKey, node.Servant()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range s.nodes {
			node.Stop()
		}
	})
	return s
}

func (s *set) start() {
	// Followers first so the bootstrap leader's initial round finds them.
	for i := len(s.ids) - 1; i >= 0; i-- {
		s.nodes[s.ids[i]].Start()
	}
}

func (s *set) leaders() []*Node {
	var out []*Node
	for _, id := range s.ids {
		if roleOf(s.nodes[id]) == Leader {
			out = append(out, s.nodes[id])
		}
	}
	return out
}

// assertOneLeaderPerTerm is the core Raft safety check: no term may appear
// in two members' won-term lists.
func assertOneLeaderPerTerm(t *testing.T, s *set) {
	t.Helper()
	byTerm := make(map[int]string)
	for _, id := range s.ids {
		for _, term := range s.nodes[id].WonTerms() {
			if prev, dup := byTerm[term]; dup && prev != id {
				t.Fatalf("term %d won by both %s and %s", term, prev, id)
			}
			byTerm[term] = id
		}
	}
}

func TestBootstrapLeadsTermOne(t *testing.T) {
	s := newSet(t, 3, 1)
	s.start()
	if got := roleOf(s.nodes["m0"]); got != Leader {
		t.Fatalf("bootstrap role = %v", got)
	}
	if got := termOf(s.nodes["m0"]); got != 1 {
		t.Fatalf("bootstrap term = %d", got)
	}
	// The initial append round told the followers who leads.
	for _, id := range s.ids[1:] {
		if got := s.nodes[id].Leader(); got != "m0" {
			t.Fatalf("%s leader = %q", id, got)
		}
		if got := roleOf(s.nodes[id]); got != Follower {
			t.Fatalf("%s role = %v", id, got)
		}
	}
}

func TestFailoverElectsNewLeader(t *testing.T) {
	s := newSet(t, 3, 7)
	s.start()
	s.nodes["m0"].Stop()
	s.clock.Advance(30 * time.Second)
	leaders := s.leaders()
	if len(leaders) != 1 {
		t.Fatalf("leaders after failover = %d", len(leaders))
	}
	if leaders[0].ID() == "m0" {
		t.Fatal("stopped node still leads")
	}
	if term := termOf(leaders[0]); term < 2 {
		t.Fatalf("new leader term = %d", term)
	}
	assertOneLeaderPerTerm(t, s)
}

func TestProposeCommitsOnAllMembers(t *testing.T) {
	s := newSet(t, 3, 1)
	s.start()
	lead := s.nodes["m0"]
	for i := 0; i < 3; i++ {
		idx, term, err := lead.Propose([]byte(fmt.Sprintf("op%d", i)))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if idx != i+1 || term != 1 {
			t.Fatalf("propose %d placed at %d/%d", i, idx, term)
		}
	}
	// Followers learn the commit index from the next heartbeat.
	s.clock.Advance(5 * time.Second)
	want := []string{"1/1:op0", "2/1:op1", "3/1:op2"}
	for _, id := range s.ids {
		got := s.applies[id].list()
		if len(got) != len(want) {
			t.Fatalf("%s applied %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s applied %v, want %v", id, got, want)
			}
		}
	}
	if st := statsOf(lead); st.Proposals != 3 || st.EntriesCommitted != 3 {
		t.Fatalf("leader stats = %+v", st)
	}
}

func TestProposeFailsWithoutQuorum(t *testing.T) {
	s := newSet(t, 3, 1)
	s.start()
	s.engine.Isolate("m1", "m2")
	if _, _, err := s.nodes["m0"].Propose([]byte("lost")); err == nil {
		t.Fatal("proposal committed without a quorum")
	}
	if st := statsOf(s.nodes["m0"]); st.ProposalsFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Healing lets the next proposal (and the stranded entry) commit.
	s.engine.HealAll()
	if _, _, err := s.nodes["m0"].Propose([]byte("kept")); err != nil {
		t.Fatalf("post-heal proposal: %v", err)
	}
	s.clock.Advance(5 * time.Second)
	if got := s.applies["m1"].list(); len(got) != 2 {
		t.Fatalf("m1 applied %v, want both entries", got)
	}
}

func TestFollowerRejectsNotLeaderPropose(t *testing.T) {
	s := newSet(t, 3, 1)
	s.start()
	if _, _, err := s.nodes["m1"].Propose([]byte("nope")); err == nil {
		t.Fatal("follower accepted a proposal")
	}
}

// TestPartitionedLeaderIsDeposed is the election-layer half of the
// split-brain story: a leader cut off from the quorum (one-way rules on its
// sends, symmetric isolation on its inbox) cannot commit, a new leader
// rises at a higher term, and on heal the old leader steps down — with the
// one-leader-per-term invariant intact throughout.
func TestPartitionedLeaderIsDeposed(t *testing.T) {
	s := newSet(t, 3, 42)
	s.start()
	old := s.nodes["m0"]

	// Cut m0 off: nothing reaches it, and its own sends are dropped.
	s.engine.Isolate("m0")
	s.engine.IsolateOutbound("m0")

	if _, _, err := old.Propose([]byte("fenced")); err == nil {
		t.Fatal("partitioned leader committed a write")
	}
	s.clock.Advance(time.Minute)
	leaders := s.leaders()
	if len(leaders) != 2 {
		// m0 still believes it leads term 1; exactly one new leader rose.
		t.Fatalf("leaders during partition = %d", len(leaders))
	}
	var fresh *Node
	for _, l := range leaders {
		if l.ID() != "m0" {
			fresh = l
		}
	}
	if fresh == nil || termOf(fresh) <= termOf(old) {
		t.Fatalf("no higher-term leader rose: %v", leaders)
	}
	assertOneLeaderPerTerm(t, s)

	// Heal: the next exchange tells the stale leader about the higher term.
	s.engine.HealAll()
	s.clock.Advance(15 * time.Second)
	if roleOf(old) != Follower {
		t.Fatalf("deposed leader role = %v", roleOf(old))
	}
	if got := old.Leader(); got != fresh.ID() {
		t.Fatalf("deposed leader follows %q, want %q", got, fresh.ID())
	}
	if len(s.leaders()) != 1 {
		t.Fatalf("leaders after heal = %d", len(s.leaders()))
	}
	assertOneLeaderPerTerm(t, s)
}

func TestPersistedVoteSurvivesRestart(t *testing.T) {
	clock := sim.NewVirtualClock()
	rng := sim.NewRNG(1)
	o := orb.New()
	st := NewMemoryStore()
	build := func() *Node {
		return NewNode(Config{
			ID:    "solo",
			Clock: clock,
			RNG:   rng,
			Inv:   o,
			Store: st,
		})
	}
	n1 := build()
	n1.Start()
	// Grant a ballot in term 5, then "crash" the node.
	vr := n1.handleRequestVote(requestVote{Term: 5, Candidate: "alice"})
	if !vr.Granted {
		t.Fatalf("first ballot refused: %+v", vr)
	}
	n1.Stop()

	// The restarted node must remember the vote: a competing candidate in
	// the same term is refused, alice asking again is granted.
	n2 := build()
	n2.Start()
	defer n2.Stop()
	if termOf(n2) != 5 {
		t.Fatalf("restarted term = %d", termOf(n2))
	}
	if vr := n2.handleRequestVote(requestVote{Term: 5, Candidate: "bob"}); vr.Granted {
		t.Fatal("restarted node double-voted in term 5")
	}
	if vr := n2.handleRequestVote(requestVote{Term: 5, Candidate: "alice"}); !vr.Granted {
		t.Fatal("restarted node forgot its own vote")
	}
}

func TestDeterministicElectionTrace(t *testing.T) {
	trace := func() string {
		s := newSet(t, 3, 9)
		s.start()
		s.nodes["m0"].Stop()
		s.clock.Advance(time.Minute)
		out := ""
		for _, id := range s.ids {
			n := s.nodes[id]
			out += fmt.Sprintf("%s:%v/%d ", id, roleOf(n), termOf(n))
		}
		return out
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

// roleOf, termOf and statsOf read a node's state under its lock.
func roleOf(n *Node) Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

func termOf(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

func statsOf(n *Node) Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

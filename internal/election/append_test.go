package election

import (
	"fmt"
	"sync"
	"testing"

	"integrade/internal/orb"
	"integrade/internal/sim"
	"integrade/internal/testutil/seeds"
)

// sentAppend is one AppendEntries as the leader handed it to the transport:
// where it went, what it carried, and whether it was acknowledged.
type sentAppend struct {
	to      orb.Endpoint
	entries int
	payload int // bytes of entry data
	acked   bool
}

// appendLog wraps a member's outbound invoker and records every
// AppendEntries it sends, including those the transport then drops.
type appendLog struct {
	next orb.Invoker
	mu   sync.Mutex
	sent []sentAppend
}

func (r *appendLog) Invoke(ref orb.ObjectRef, op string, arg []byte) ([]byte, error) {
	if op != OpAppendEntries {
		return r.next.Invoke(ref, op, arg)
	}
	ae, err := decodeAppendEntries(orb.NewDecoder(arg))
	if err != nil {
		panic(err)
	}
	s := sentAppend{to: ref.Endpoint, entries: len(ae.Entries)}
	for _, ent := range ae.Entries {
		s.payload += len(ent.Data)
	}
	reply, err := r.next.Invoke(ref, op, arg)
	if err == nil {
		ar, derr := decodeAppendReply(orb.NewDecoder(reply))
		s.acked = derr == nil && ar.Success
	}
	r.mu.Lock()
	r.sent = append(r.sent, s)
	r.mu.Unlock()
	return reply, err
}

// to returns the appends to member id recorded at or after position from.
func (r *appendLog) to(s *set, id string, from int) []sentAppend {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sentAppend
	for _, a := range r.sent[from:] {
		if a.to == s.refs[id].Endpoint {
			out = append(out, a)
		}
	}
	return out
}

func (r *appendLog) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sent)
}

// record puts an appendLog in front of member id's transport; call it
// before start.
func (s *set) record(id string) *appendLog {
	r := &appendLog{next: s.nodes[id].inv}
	s.nodes[id].inv = r
	return r
}

// propose commits data on the leader m0 or fails the test.
func (s *set) propose(t *testing.T, data []byte) {
	t.Helper()
	if _, _, err := s.nodes["m0"].Propose(data); err != nil {
		t.Fatalf("propose: %v", err)
	}
}

// catchUp drives up to limit of m0's append rounds, until id's log matches
// m0's.
func (s *set) catchUp(t *testing.T, id string, limit int) {
	t.Helper()
	for range limit {
		s.nodes["m0"].broadcastAppend()
		if logLen(s.nodes[id]) == logLen(s.nodes["m0"]) {
			assertSameLog(t, s.nodes["m0"], s.nodes[id])
			return
		}
	}
	t.Fatalf("%s holds %d of %d entries after %d rounds", id, logLen(s.nodes[id]), logLen(s.nodes["m0"]), limit)
}

// peerOf returns a copy of leader's progress record for id.
func peerOf(leader *Node, id string) peer {
	leader.mu.Lock()
	defer leader.mu.Unlock()
	for _, p := range leader.peers {
		if p.id == id {
			return p
		}
	}
	panic("no peer " + id)
}

func logLen(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.entries)
}

func assertSameLog(t *testing.T, a, b *Node) {
	t.Helper()
	a.mu.Lock()
	want := a.entries
	a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) != len(want) {
		t.Fatalf("%s holds %d entries, %s %d", b.id, len(b.entries), a.id, len(want))
	}
	for i := range want {
		if b.entries[i].Term != want[i].Term || string(b.entries[i].Data) != string(want[i].Data) {
			t.Fatalf("%s entry %d differs from %s's", b.id, i+1, a.id)
		}
	}
}

// payload is n bytes that name index i.
func payload(i, n int) []byte {
	b := make([]byte, n)
	copy(b, fmt.Sprint(i))
	return b
}

// TestAppendsStayWithinCaps: a follower that missed a few megabytes of log
// is sent it in appends of at most maxAppendEntries entries and, past their
// first, maxAppendBytes of payload, and every member ends with the same log.
func TestAppendsStayWithinCaps(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		rec := s.record("m0")
		s.start()
		s.engine.Isolate("m2")
		// Small entries first, for the count cap to cut, then large ones
		// for the byte cap.
		rng := sim.NewRNG(seed)
		for i := 0; i < 4*maxAppendEntries; i++ {
			size := 16
			if i >= 2*maxAppendEntries {
				size = rng.Intn(maxAppendBytes / 16)
			}
			s.propose(t, payload(i, size))
		}
		s.engine.HealAll()
		s.catchUp(t, "m2", 100)
		byCount, byBytes := false, false
		for _, a := range rec.to(s, "m2", 0) {
			if a.entries > maxAppendEntries || (a.entries > 1 && a.payload > maxAppendBytes) {
				t.Fatalf("an append carried %d entries, %d bytes", a.entries, a.payload)
			}
			byCount = byCount || a.entries == maxAppendEntries
			byBytes = byBytes || (a.entries < maxAppendEntries && a.payload > maxAppendBytes*3/4)
		}
		if !byCount || !byBytes {
			t.Fatalf("the catch-up reached the count cap %v, the byte cap %v", byCount, byBytes)
		}
	})
}

// TestOversizedEntryGoesAlone: an entry larger than maxAppendBytes is sent in
// an append of its own, so a follower missing it still catches up.
func TestOversizedEntryGoesAlone(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		rec := s.record("m0")
		s.start()
		s.propose(t, payload(0, 10))
		s.catchUp(t, "m2", 3) // m2 acknowledges, so it leaves probe
		s.engine.Isolate("m2")
		s.propose(t, payload(1, 10))
		s.propose(t, payload(2, maxAppendBytes+1))
		s.propose(t, payload(3, 10))
		s.engine.HealAll()
		from := rec.len()
		s.catchUp(t, "m2", 10)
		alone := false
		for _, a := range rec.to(s, "m2", from) {
			if a.payload > maxAppendBytes {
				alone = a.entries == 1
			}
		}
		if !alone {
			t.Fatalf("the oversized entry did not go alone: %+v", rec.to(s, "m2", from))
		}
	})
}

// TestLaggingFollowerCatchesUp: a follower N entries behind, N a multiple of
// maxAppendEntries, catches up in ⌈N/maxAppendEntries⌉ appends and a few
// more once its partition heals.
func TestLaggingFollowerCatchesUp(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		rec := s.record("m0")
		s.start()
		s.engine.Isolate("m2")
		const n = 20 * maxAppendEntries
		for i := 0; i < n; i++ {
			s.propose(t, payload(i, 16))
		}
		s.engine.HealAll()
		from := rec.len()
		s.catchUp(t, "m2", 100)
		if got, want := len(rec.to(s, "m2", from)), (n+maxAppendEntries-1)/maxAppendEntries+2; got > want {
			t.Fatalf("caught up %d entries in %d appends, want at most %d", n, got, want)
		}
	})
}

// TestUnreachablePeerCostsOneEntry: once an append to a peer fails, each
// later round sends it at most one entry however far behind it falls. A
// proposal's rounds end at its commit, before the unreachable peer, so a
// heartbeat round follows each.
func TestUnreachablePeerCostsOneEntry(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		rec := s.record("m0")
		s.start()
		// Put m2 behind and out of probe: it acknowledges a run, with more to come.
		s.engine.Isolate("m2")
		for i := 0; i < 3*maxAppendEntries; i++ {
			s.propose(t, payload(i, 16))
		}
		s.engine.HealAll()
		s.nodes["m0"].broadcastAppend()
		s.nodes["m0"].broadcastAppend()
		if p := peerOf(s.nodes["m0"], "m2"); p.probe || p.match < 2 {
			t.Fatalf("m2 after two rounds: %+v", p)
		}
		s.engine.Isolate("m2")
		from := rec.len()
		for i := 0; i < 50; i++ {
			s.propose(t, payload(i, 16))
			s.nodes["m0"].broadcastAppend()
		}
		sent := rec.to(s, "m2", from)
		if len(sent) < 50 {
			t.Fatalf("%d appends to m2 over 50 proposals", len(sent))
		}
		for i, a := range sent[1:] {
			if a.acked || a.entries > 1 {
				t.Fatalf("append %d to unreachable m2 carried %d entries (acked %v)", i+2, a.entries, a.acked)
			}
		}
	})
}

// TestPeerLeavesProbeOnFirstAck: a peer in probe is sent one entry, and the
// round after its first acknowledgement a full run.
func TestPeerLeavesProbeOnFirstAck(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		rec := s.record("m0")
		s.start()
		s.engine.Isolate("m2")
		for i := 0; i < 2*maxAppendEntries; i++ {
			s.propose(t, payload(i, 16))
		}
		s.nodes["m0"].broadcastAppend() // the proposals' rounds end before m2
		if p := peerOf(s.nodes["m0"], "m2"); !p.probe {
			t.Fatalf("unreachable m2 not in probe: %+v", p)
		}
		s.engine.HealAll()
		from := rec.len()
		s.nodes["m0"].broadcastAppend()
		if p := peerOf(s.nodes["m0"], "m2"); p.probe {
			t.Fatalf("m2 still in probe after an acknowledged append: %+v", p)
		}
		s.nodes["m0"].broadcastAppend()
		sent := rec.to(s, "m2", from)
		if len(sent) != 2 || sent[0].entries != 1 || !sent[0].acked || sent[1].entries != maxAppendEntries {
			t.Fatalf("appends to m2 after heal: %+v", sent)
		}
	})
}

// TestSentRunSurvivesTruncation: a run the leader sliced from its log under
// mu is still being encoded after unlock when the node, deposed, truncates
// its log to a new leader's. The truncation copies, so the run does not
// change under the encoder (and -race sees no race).
func TestSentRunSurvivesTruncation(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		s.start()
		lead := s.nodes["m0"]
		s.engine.Isolate("m1", "m2")
		for i := 0; i < 8; i++ {
			if _, _, err := lead.Propose(payload(i, 16)); err == nil {
				t.Fatal("committed without a quorum")
			}
		}
		lead.mu.Lock()
		run := lead.runLocked(0, false)
		lead.mu.Unlock()
		if len(run) != 8 {
			t.Fatalf("run of %d entries, want 8", len(run))
		}
		done := make(chan appendReply)
		go func() {
			done <- lead.handleAppend(appendEntries{
				Term: 5, Leader: "m1", Entries: []entry{{Term: 5, Data: []byte("theirs")}},
			})
		}()
		var e orb.Encoder
		encodeAppendEntries(appendEntries{Term: 1, Leader: "m0", Entries: run}, &e)
		if ar := <-done; !ar.Success || logLen(lead) != 1 {
			t.Fatalf("the deposed leader did not take the new log: %+v, %d entries", ar, logLen(lead))
		}
		for i, ent := range run {
			if ent.Term != 1 || string(ent.Data) != string(payload(i, 16)) {
				t.Fatalf("sent entry %d became %d/%q", i+1, ent.Term, ent.Data)
			}
		}
	})
}

// TestConcurrentProposals: proposals from several goroutines race each
// other's append rounds, which read runs of the log outside mu while the
// others append to it; every member ends with the same log.
func TestConcurrentProposals(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		s.start()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if _, _, err := s.nodes["m0"].Propose(payload(100*g+i, 16)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("propose: %v", err)
		}
		if got := logLen(s.nodes["m0"]); got != 100 {
			t.Fatalf("leader holds %d entries, want 100", got)
		}
		s.catchUp(t, "m1", 10)
		s.catchUp(t, "m2", 10)
	})
}

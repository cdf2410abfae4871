package election

import (
	"testing"
	"time"

	"integrade/internal/chaos"
	"integrade/internal/testutil/seeds"
)

// silence makes the members' answers to the leader's appends go missing: each
// append still reaches its member, 100 ms late, so the member keeps following
// and never campaigns, but the leader sees a timeout. It returns the healing.
func silence(s *set, members ...string) (heal func()) {
	var ids []int
	for _, m := range members {
		ids = append(ids, s.engine.AddFault(chaos.MessageFault{
			Match:   chaos.Match{Addr: m, Key: ObjectKey},
			Delay:   1,
			DelayBy: 100 * time.Millisecond,
		}))
	}
	return func() {
		for _, id := range ids {
			s.engine.RemoveFault(id)
		}
	}
}

// TestLeaderLosesQuorumWhenPeersGoSilent: a leader whose two peers stop
// answering reports no quorum within TimeoutMin plus one heartbeat of the cut,
// keeps its role and term meanwhile, and holds its quorum again at the first
// heartbeat answered after the heal.
func TestLeaderLosesQuorumWhenPeersGoSilent(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		s.start()
		lead := s.nodes["m0"]
		s.clock.Advance(3 * time.Second)
		if !lead.HasQuorum() {
			t.Fatal("a leader its peers answer holds no quorum")
		}

		heal := silence(s, "m1", "m2")
		const step = 100 * time.Millisecond
		lost := time.Duration(-1)
		for elapsed := time.Duration(0); elapsed <= time.Minute; elapsed += step {
			held := lead.HasQuorum()
			if lost < 0 && !held {
				lost = elapsed
			}
			if lost >= 0 && held {
				t.Fatalf("quorum held again %v after the cut, lost at %v, with the peers still silent", elapsed, lost)
			}
			s.clock.Advance(step)
		}
		if limit := DefaultTimeoutMin + DefaultHeartbeat; lost < 0 || lost > limit {
			t.Fatalf("quorum lost %v after the cut, want within %v", lost, limit)
		}
		if roleOf(lead) != Leader || termOf(lead) != 1 || len(s.leaders()) != 1 {
			t.Fatalf("after the cut: leader role %v, term %d, %d leaders; want the one leader of term 1",
				roleOf(lead), termOf(lead), len(s.leaders()))
		}

		heal()
		s.clock.Advance(DefaultHeartbeat + step)
		if !lead.HasQuorum() {
			t.Fatal("no quorum one heartbeat after the heal")
		}
		if roleOf(lead) != Leader || termOf(lead) != 1 {
			t.Fatalf("after the heal: role %v, term %d; want leader of term 1", roleOf(lead), termOf(lead))
		}
	})
}

// TestLeaderKeepsQuorumWithOnePeerSilent: one answering peer and the leader
// itself are a majority of three, so losing the other peer costs nothing.
func TestLeaderKeepsQuorumWithOnePeerSilent(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		s := newSet(t, 3, seed)
		s.start()
		lead := s.nodes["m0"]
		silence(s, "m2")
		for elapsed := time.Duration(0); elapsed <= time.Minute; elapsed += time.Second {
			if !lead.HasQuorum() {
				t.Fatalf("quorum lost %v after one peer of two went silent", elapsed)
			}
			s.clock.Advance(time.Second)
		}
	})
}

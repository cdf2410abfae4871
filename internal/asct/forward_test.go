package asct

import (
	"sync"
	"testing"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// scriptedGRM answers Submit and CancelApp: with a forward to next when next
// is set, as a replica that does not lead does, or by taking the call.
type scriptedGRM struct {
	mu                 sync.Mutex
	next               orb.ObjectRef
	submits, cancelled []string
	calls              int
}

func (s *scriptedGRM) servant() orb.Servant {
	m := orb.NewOpMux()
	refuse := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.calls++
		if s.next.IsZero() {
			return nil
		}
		return orb.Errorf(orb.CodeForward, "%s", s.next)
	}
	orb.Serve(m, protocol.Submit, func(spec protocol.ApplicationSpec) (string, error) {
		if err := refuse(); err != nil {
			return "", err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.submits = append(s.submits, spec.Name)
		return "c-app-1", nil
	})
	orb.Serve(m, protocol.CancelApp, func(appID string) (struct{}, error) {
		if err := refuse(); err != nil {
			return struct{}{}, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cancelled = append(s.cancelled, appID)
		return struct{}{}, nil
	})
	return m
}

func (s *scriptedGRM) bind(t *testing.T, o *orb.ORB, name string) orb.ObjectRef {
	t.Helper()
	a := orb.NewAdapter()
	if err := a.Register(protocol.GRMKey, s.servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback(name, a)
	if err != nil {
		t.Fatal(err)
	}
	return orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}
}

func (s *scriptedGRM) seen() (calls int, submits, cancelled []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, append([]string(nil), s.submits...), append([]string(nil), s.cancelled...)
}

// TestToolFollowsForwardOnce: a submit and a cancel sent to a follower reach
// the leader its forward names, one hop a call; two members that forward to
// each other cost one hop and return the forward.
func TestToolFollowsForwardOnce(t *testing.T) {
	o := orb.New()
	defer o.Close()
	leader, follower := &scriptedGRM{}, &scriptedGRM{}
	leaderRef := leader.bind(t, o, "leader")
	follower.next = leaderRef
	tool := New(o, follower.bind(t, o, "follower"), sim.NewVirtualClock())

	app := NewApplication("fwd").Parametric(2, 100).Allocate(resource.Vector{MIPS: 100, RAMMB: 16})
	h, err := tool.Submit(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	if calls, submits, cancelled := leader.seen(); calls != 2 || len(submits) != 1 || len(cancelled) != 1 || h.ID() != "c-app-1" || cancelled[0] != "c-app-1" {
		t.Fatalf("leader saw %d calls, submits %v, cancels %v; handle %q", calls, submits, cancelled, h.ID())
	}
	if calls, submits, _ := follower.seen(); calls != 2 || len(submits) != 0 {
		t.Fatalf("follower saw %d calls and took submits %v, want 2 refused", calls, submits)
	}

	// A loop: the leader now forwards back to the follower.
	leader.mu.Lock()
	leader.next = tool.client.Ref()
	leader.mu.Unlock()
	_, err = tool.Submit(app)
	if _, ok := orb.Forwarded(err); !ok {
		t.Fatalf("submit into a forward loop: %v, want the second forward", err)
	}
	leaderCalls, _, _ := leader.seen()
	followerCalls, _, _ := follower.seen()
	if leaderCalls != 3 || followerCalls != 3 {
		t.Fatalf("calls after the loop: leader %d, follower %d; want one hop (3 and 3)", leaderCalls, followerCalls)
	}
}

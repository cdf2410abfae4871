package lrm

import (
	"maps"
	"slices"
	"testing"
	"time"

	"integrade/internal/ncc"
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// bindGRM serves a scripted manager on a new loopback endpoint of the
// fixture's ORB and returns its GRM reference.
func (f *fixture) bindGRM(t *testing.T, name string, g *fakeGRM) orb.ObjectRef {
	t.Helper()
	adapter := orb.NewAdapter()
	if err := adapter.Register(protocol.GRMKey, g.servant()); err != nil {
		t.Fatal(err)
	}
	ep, err := f.o.BindLoopback(name, adapter)
	if err != nil {
		t.Fatal(err)
	}
	return orb.ObjectRef{Endpoint: ep, Key: protocol.GRMKey}
}

func (f *fakeGRM) counts() (updates, refused, reconciles int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.updates), f.refused, len(f.reconciles)
}

// TestForwardedUpdateRegistersWithLeader: a manager that refuses an update
// with a forward sends the LRM to the leader within the same SendUpdate. The
// update reaches the leader, the LRM reports to it from then on, and it
// reconciles its running task with it.
func TestForwardedUpdateRegistersWithLeader(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	leader := &fakeGRM{epoch: 3}
	leaderRef := f.bindGRM(t, "leader", leader)
	f.grm.forward = leaderRef
	f.startTask(t, "app", "app/t0", 1e9)

	f.lrm.SendUpdate()

	if _, refused, _ := f.grm.counts(); refused != 1 {
		t.Fatalf("follower refused %d updates, want 1", refused)
	}
	updates, _, reconciles := leader.counts()
	if updates != 1 || reconciles != 1 {
		t.Fatalf("leader got %d updates and %d reconciles, want 1 and 1", updates, reconciles)
	}
	leader.mu.Lock()
	claims := leader.reconciles[0].Claims
	leader.mu.Unlock()
	if len(claims) != 1 || claims[0].TaskID != "app/t0" || claims[0].AppID != "app" {
		t.Fatalf("reconcile claims = %+v, want app/t0 of app", claims)
	}
	if got := f.lrm.grmClient().Ref(); got != leaderRef {
		t.Fatalf("reporting to %v, want the leader %v", got, leaderRef)
	}
	st := f.lrm.Stats()
	if st.Reregistrations != 1 || st.UpdatesSent != 1 || st.UpdateFailures != 0 {
		t.Fatalf("stats = %+v, want one re-registration, one update sent, no failure", st)
	}
	if got := f.lrm.Fence(); got != 3 {
		t.Fatalf("Fence = %d, want the leader's epoch 3", got)
	}

	// The next update goes straight to the leader.
	f.lrm.SendUpdate()
	if updates, _, _ := leader.counts(); updates != 2 {
		t.Fatalf("leader got %d updates, want 2", updates)
	}
	if _, refused, _ := f.grm.counts(); refused != 1 {
		t.Fatalf("follower refused %d updates, want still 1", refused)
	}
}

// TestForwardLoopCostsOneHop: two managers that forward to each other cost
// one hop an update — each firing of the update loop asks each once and
// fails — and so does a re-registration attempt that meets the cycle: it asks
// the other one, follows its forward back to the manager it is leaving, fails
// and paces the update loop's next firing at the following attempt's delay.
func TestForwardLoopCostsOneHop(t *testing.T) {
	other := &fakeGRM{}
	var otherRef orb.ObjectRef
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(time.Minute),
		WithGRMResolver(func(orb.ObjectRef) (orb.ObjectRef, error) { return otherRef, nil }))
	otherRef = f.bindGRM(t, "other", other)
	f.grm.forward = otherRef
	other.forward = f.lrm.grmClient().Ref()
	var delays []int
	f.lrm.reregDelay = func(_ string, attempt int) time.Duration {
		delays = append(delays, attempt)
		return time.Minute
	}
	f.lrm.Start()

	for i := 1; i <= reregisterAfter; i++ {
		f.clock.Advance(time.Minute)
		_, first, _ := f.grm.counts()
		_, second, _ := other.counts()
		if first != i || second != i {
			t.Fatalf("after %d updates the managers refused %d and %d, want %d each", i, first, second, i)
		}
		if got := f.lrm.Stats().UpdateFailures; got != i {
			t.Fatalf("UpdateFailures = %d, want %d", got, i)
		}
	}
	if !slices.Equal(delays, []int{1}) {
		t.Fatalf("backoff attempts paced = %v, want [1]", delays)
	}
	// The first attempt resolves the other manager, which forwards back to
	// the one whose failures started re-registration, which forwards again:
	// the loop's next firing is paced for attempt 2.
	f.clock.Advance(time.Minute)
	_, first, _ := f.grm.counts()
	_, second, _ := other.counts()
	if first != reregisterAfter+1 || second != reregisterAfter+1 {
		t.Fatalf("after the attempt the managers refused %d and %d, want %d each",
			first, second, reregisterAfter+1)
	}
	if !slices.Equal(delays, []int{1, 2}) {
		t.Fatalf("backoff attempts paced = %v, want [1 2]", delays)
	}
	if st := f.lrm.Stats(); st.Reregistrations != 0 || st.UpdatesSent != 0 {
		t.Fatalf("stats = %+v, want no registration", st)
	}
}

// TestForwardToUnreachableFails: a forward that names a manager nobody serves
// is a failed attempt, and the LRM keeps reporting where it did.
func TestForwardToUnreachableFails(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	home := f.lrm.grmClient().Ref()
	f.grm.forward = orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "gone"}, Key: protocol.GRMKey}

	f.lrm.SendUpdate()

	st := f.lrm.Stats()
	if st.UpdateFailures != 1 || st.UpdatesSent != 0 || st.Reregistrations != 0 {
		t.Fatalf("stats = %+v, want one failed update", st)
	}
	if got := f.lrm.grmClient().Ref(); got != home {
		t.Fatalf("reporting to %v, want still %v", got, home)
	}
	f.lrm.mu.Lock()
	fails := f.lrm.consecFails
	f.lrm.mu.Unlock()
	if fails != 1 {
		t.Fatalf("consecutive failures = %d, want 1", fails)
	}
}

// rotation is a resolver that names refs in turn, counting its calls.
type rotation struct {
	refs     []orb.ObjectRef
	resolved int
}

func (r *rotation) resolve(orb.ObjectRef) (orb.ObjectRef, error) {
	ref := r.refs[r.resolved%len(r.refs)]
	r.resolved++
	return ref, nil
}

// failedManagerFixture is an LRM whose manager has just died, whose update
// loop has failed reregisterAfter times a minute apart and re-registers from
// then on, its attempts a minute apart (attempts counts them), and members,
// bound under the names given, that forward to the dead manager or accept its
// updates at epoch 2.
func failedManagerFixture(t *testing.T, r *rotation, members map[string]bool) (f *fixture, dead orb.ObjectRef, refs map[string]orb.ObjectRef, attempts *int) {
	f = newFixture(t, dedicatedSpec(1000), nil, ncc.Generous(),
		WithUpdatePeriod(time.Minute), WithGRMResolver(r.resolve))
	dead = f.lrm.grmClient().Ref()
	refs = map[string]orb.ObjectRef{"dead": dead}
	for _, name := range slices.Sorted(maps.Keys(members)) {
		g := &fakeGRM{epoch: 2}
		if members[name] {
			g.forward = dead
		}
		refs[name] = f.bindGRM(t, name, g)
	}
	attempts = new(int)
	f.lrm.reregDelay = func(string, int) time.Duration {
		*attempts++
		return time.Minute
	}
	f.grm.setDown(true)
	f.lrm.Start()
	f.clock.Advance(reregisterAfter * time.Minute)
	if st := f.lrm.Stats(); st.UpdateFailures != reregisterAfter || r.resolved != 0 {
		t.Fatalf("stats = %+v after %d resolutions, want %d failed updates and none",
			st, r.resolved, reregisterAfter)
	}
	return f, dead, refs, attempts
}

// TestReregisterReturnsToRecoveredManager: the first attempt meets a member
// forwarding back to the manager that failed while it is down; it then
// recovers, and the next attempt, which the rotation points at it, registers
// with it rather than with the unreachable member after it.
func TestReregisterReturnsToRecoveredManager(t *testing.T) {
	r := &rotation{}
	f, home, refs, attempts := failedManagerFixture(t, r, map[string]bool{"m1": true})
	gone := orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "gone"}, Key: protocol.GRMKey}
	r.refs = []orb.ObjectRef{refs["m1"], home, gone}

	f.clock.Advance(time.Minute)
	if r.resolved != 1 || f.lrm.Stats().Reregistrations != 0 {
		t.Fatalf("%d resolutions and stats %+v after the first attempt, want 1 and no re-registration",
			r.resolved, f.lrm.Stats())
	}
	f.grm.setDown(false)
	f.clock.Advance(time.Minute)

	if r.resolved != 2 {
		t.Fatalf("%d resolutions, want 2", r.resolved)
	}
	if got := f.lrm.grmClient().Ref(); got != home {
		t.Fatalf("reporting to %v, want the recovered manager %v", got, home)
	}
	if st := f.lrm.Stats(); st.Reregistrations != 1 {
		t.Fatalf("stats = %+v, want one re-registration", st)
	}
	// Registered, the loop is back at the update period: the next firing is
	// a minute on, to the recovered manager, and paces no attempt.
	f.clock.Advance(time.Minute)
	if r.resolved != 2 || *attempts != 2 || f.grm.updateCount() != 2 {
		t.Fatalf("%d resolutions, %d attempts paced, %d updates accepted; want 2, 2 and 2",
			r.resolved, *attempts, f.grm.updateCount())
	}
}

// TestReregisterFollowsForwardToRecoveredManager: a member's forward to the
// manager that failed is followed as any other. The first attempt follows it
// while that manager is down and fails; once it accepts an update again, the
// next attempt follows the other member's forward to it and registers.
func TestReregisterFollowsForwardToRecoveredManager(t *testing.T) {
	r := &rotation{}
	f, home, refs, _ := failedManagerFixture(t, r, map[string]bool{"m1": true, "m2": true})
	r.refs = []orb.ObjectRef{refs["m1"], refs["m2"]}

	f.clock.Advance(time.Minute)
	f.grm.setDown(false)
	f.clock.Advance(time.Minute)

	if r.resolved != 2 {
		t.Fatalf("%d resolutions, want 2", r.resolved)
	}
	if got := f.lrm.grmClient().Ref(); got != home {
		t.Fatalf("reporting to %v, want the recovered manager %v", got, home)
	}
	if st := f.lrm.Stats(); st.Reregistrations != 1 {
		t.Fatalf("stats = %+v, want one re-registration", st)
	}
}

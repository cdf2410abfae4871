package core

import (
	"testing"
	"time"

	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/usage"
)

// departureGrid is a cluster of one office-worker desktop whose LRM drains
// 15 minutes ahead of a predicted owner return, on a replica set of the given
// size (0: one manager), and tick(k), the instant of the node's k-th usage
// sample: a drain fires at one of them.
func departureGrid(t *testing.T, replicas int) (g *Grid, c *Cluster, tick func(k int) time.Time) {
	t.Helper()
	g = NewGrid(WithSeed(11))
	opts := []ClusterOption{WithLRMOptions(lrm.WithDepartureDrain(15 * time.Minute))}
	if replicas > 0 {
		opts = append(opts, WithReplicaSet(replicas))
	}
	c, err := g.AddCluster("lab", opts...)
	if err != nil {
		g.Stop()
		t.Fatal(err)
	}
	// The node joins halfway between two of a leader's replication flushes,
	// 5 s apart, so that none of its samples falls on one.
	if err := g.Advance(grm.DefaultReplicationInterval / 2); err != nil {
		g.Stop()
		t.Fatal(err)
	}
	t0 := g.Now()
	if _, err := c.AddNodes(DesktopNodes(1, usage.OfficeWorker)); err != nil {
		g.Stop()
		t.Fatal(err)
	}
	return g, c, func(k int) time.Time { return t0.Add(time.Duration(k) * usage.Interval) }
}

// firstDrain runs a departureGrid until its desktop drains, once its LUPA has
// trained, and returns the sample that drained it. The grid is deterministic,
// so another departureGrid of the same size drains at the same sample.
func firstDrain(t *testing.T, replicas int) int {
	t.Helper()
	g, c, tick := departureGrid(t, replicas)
	defer g.Stop()
	for k := 1; k <= 14*24*12; k++ {
		advanceTo(t, g, tick(k))
		if c.LRMs()[0].Stats().DepartureNotices > 0 {
			return k
		}
	}
	t.Fatal("the desktop never drained in two weeks")
	return 0
}

// advanceTo advances the grid's clock to at.
func advanceTo(t *testing.T, g *Grid, at time.Time) {
	t.Helper()
	if err := g.Advance(at.Sub(g.Now())); err != nil {
		t.Fatal(err)
	}
}

// TestLostDepartureAnnouncementIsRetold: the manager is cut off at the
// instant the desktop drains, so the update announcing its departure fails.
// Once the manager is reachable again, the node's next update announces the
// departure anew: the manager leaves the node without an offer, well inside
// the deadline the drain predicted (at least 10 minutes on), instead of
// handing the draining node fresh work.
func TestLostDepartureAnnouncementIsRetold(t *testing.T) {
	k := firstDrain(t, 0)
	g, c, tick := departureGrid(t, 0)
	defer g.Stop()
	l := c.LRMs()[0]
	advanceTo(t, g, tick(k).Add(-time.Second))
	if got := c.GRM().KnownNodes(); got != 1 {
		t.Fatalf("the idle desktop has %d offers before its drain, want 1", got)
	}
	engine := g.EnableChaos(1)
	engine.Isolate(c.ManagerEndpoint())
	advanceTo(t, g, tick(k).Add(time.Second))
	engine.Heal(c.ManagerEndpoint())
	if st := l.Stats(); st.DepartureNotices != 1 || st.UpdateFailures == 0 {
		t.Fatalf("LRM stats %+v, want one drain announced while the manager was cut off", st)
	}
	sent := l.Stats().UpdatesSent
	for l.Stats().UpdatesSent == sent {
		if g.Now().After(tick(k).Add(5 * time.Minute)) {
			t.Fatal("no update reached the manager within 5 minutes of the outage")
		}
		advanceTo(t, g, g.Now().Add(time.Second))
	}
	if got := c.GRM().KnownNodes(); got != 0 {
		t.Fatalf("the draining desktop has %d offers at %v, after its first update since the outage", got, g.Now().Sub(tick(k)))
	}
	if got := c.GRM().Stats().GracefulDepartures; got != 1 {
		t.Fatalf("GracefulDepartures = %d, want 1", got)
	}
}

// TestDepartureOutlivesLostFlush: a replica set's leader records the
// desktop's departure and dies before its next flush, so the log never
// carries it. The successor learns the departure from the node's first
// update to it, and does not offer the node inside the deadline the drain
// predicted (at least 10 minutes on).
func TestDepartureOutlivesLostFlush(t *testing.T) {
	k := firstDrain(t, 3)
	g, c, tick := departureGrid(t, 3)
	defer g.Stop()
	l := c.LRMs()[0]
	advanceTo(t, g, tick(k))
	leader := c.GRM()
	if st := l.Stats(); st.DepartureNotices != 1 {
		t.Fatalf("LRM stats %+v, want one drain announced", st)
	}
	if got := leader.Stats().GracefulDepartures; got != 1 {
		t.Fatalf("the leader's GracefulDepartures = %d, want 1", got)
	}
	if err := g.CrashGRM("lab"); err != nil {
		t.Fatal(err)
	}
	for c.GRM() == leader || l.Stats().Reregistrations == 0 {
		if g.Now().After(tick(k).Add(5 * time.Minute)) {
			t.Fatal("the node did not register with a successor within 5 minutes of the crash")
		}
		advanceTo(t, g, g.Now().Add(time.Second))
	}
	if got := c.GRM().KnownNodes(); got != 0 {
		t.Fatalf("the successor offers the draining desktop %v after the crash", g.Now().Sub(tick(k)))
	}
}

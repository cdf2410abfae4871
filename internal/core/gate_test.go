package core

import (
	"reflect"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/testutil/seeds"
)

// TestFollowerRefusesClientWrites sends each client write over the ORB to a
// follower of a replica set, and a Submit to the follower's hierarchy node,
// which calls its GRM directly. Each is refused with a forward that names the
// leader's GRM; the follower places, records, cancels and queues nothing, and
// it still answers reads from its replicated view.
func TestFollowerRefusesClientWrites(t *testing.T) {
	seeds.Run(t, followerRefusesClientWrites)
}

func followerRefusesClientWrites(t *testing.T, seed int64) {
	g, c := replicaGrid(t, seed)
	defer g.Stop()
	spec := protocol.ApplicationSpec{
		Name:        "gated",
		Kind:        protocol.AppParametric,
		NumTasks:    2,
		WorkPerTask: 300_000,
		Alloc:       resource.Vector{MIPS: 500, RAMMB: 64},
	}
	appID, err := c.GRM().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.mgmtMu.Lock()
	leader, follower := c.replicas[0], c.replicas[1]
	c.mgmtMu.Unlock()
	if c.GRM() != leader.grm {
		t.Fatal("the incumbent does not lead")
	}
	running, err := follower.grm.AppStatus(appID)
	if err != nil {
		t.Fatalf("follower lacks the leader's app: %v", err)
	}
	task := running.Tasks[0]
	if task.State != protocol.TaskRunning {
		t.Fatalf("task %s is %v on the follower, want running", task.TaskID, task.State)
	}
	before, apps := follower.grm.Stats(), follower.grm.AppIDs()

	client := protocol.NewGRMClient(g.orb, follower.grmRef)
	lrmStatus := c.LRMs()[0].Status()
	for _, w := range []struct {
		name string
		call func() error
	}{
		{"Update", func() error { _, err := client.Update(lrmStatus); return err }},
		{"Submit", func() error { _, err := client.Submit(spec); return err }},
		{"Notify", func() error {
			return client.Notify(protocol.TaskEvent{Kind: protocol.TaskEventEvicted,
				AppID: appID, TaskID: task.TaskID, NodeID: task.NodeID, At: g.Now()})
		}},
		{"departing Update", func() error {
			departing := lrmStatus
			departing.DepartUntil = g.Now().Add(time.Hour)
			_, err := client.Update(departing)
			return err
		}},
		{"CancelApp", func() error { return client.CancelApp(appID) }},
		{"Reconcile", func() error {
			_, err := client.Reconcile(protocol.ReconcileRequest{NodeID: task.NodeID,
				Claims: []protocol.TaskClaim{{TaskID: "stray/t0", AppID: "stray"}}})
			return err
		}},
		{"hierarchy Submit", func() error { _, err := follower.hnode.Submit(spec); return err }},
	} {
		err := w.call()
		if ref, ok := orb.Forwarded(err); !ok || ref != leader.grmRef {
			t.Errorf("%s to a follower: %v, want a forward to %v", w.name, err, leader.grmRef)
		}
	}

	after := follower.grm.Stats()
	if after.UpdatesRefused != before.UpdatesRefused+2 {
		t.Errorf("UpdatesRefused %d -> %d, want two more", before.UpdatesRefused, after.UpdatesRefused)
	}
	after.UpdatesRefused = before.UpdatesRefused
	if after != before {
		t.Errorf("follower stats moved:\n before %+v\n after  %+v", before, after)
	}
	if got := follower.grm.AppIDs(); !reflect.DeepEqual(got, apps) {
		t.Errorf("follower apps = %v, want %v", got, apps)
	}
	// Reads are answered from the replicated view.
	st, err := client.AppStatus(appID, nil)
	if err != nil || !reflect.DeepEqual(st, running) {
		t.Errorf("follower status over the ORB = %+v, %v; want %+v", st, err, running)
	}
	if ids, err := client.ListApps(); err != nil || !reflect.DeepEqual(ids, apps) {
		t.Errorf("follower ListApps = %v, %v; want %v", ids, err, apps)
	}
	if got := leader.grm.Stats().Submissions; got != 1 {
		t.Errorf("leader Submissions = %d, want 1", got)
	}
}

package lrm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/ncc"
	"integrade/internal/node"
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// TestAcceptedUpdateLeavesNoStaleDone: an accepted update hands its events'
// array back as the outbox, emptied, and the next completions go into it. The
// update after an accepted one carries no completion again, and a later one
// carries only its own.
func TestAcceptedUpdateLeavesNoStaleDone(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	f.startTask(t, "app", "app/t0", 400*60)  // one minute
	f.startTask(t, "app", "app/t1", 400*180) // three minutes
	doneIn := func(update int) []string {
		f.grm.mu.Lock()
		defer f.grm.mu.Unlock()
		var ids []string
		for _, ev := range ofKind(protocol.TaskEventDone, f.grm.rode[update]) {
			ids = append(ids, ev.TaskID)
		}
		return ids
	}

	f.clock.Advance(2 * time.Minute)
	f.lrm.SendUpdate()
	if got := doneIn(0); len(got) != 1 || got[0] != "app/t0" {
		t.Fatalf("first update carried %v, want t0's completion", got)
	}
	f.lrm.mu.Lock()
	n, c := len(f.lrm.outbox), cap(f.lrm.outbox)
	f.lrm.mu.Unlock()
	if n != 0 || c == 0 {
		t.Fatalf("after an accepted update the outbox holds %d of %d, want its emptied array", n, c)
	}
	f.lrm.SendUpdate()
	if got := doneIn(1); len(got) != 0 {
		t.Fatalf("the next update carried %v again", got)
	}
	f.clock.Advance(2 * time.Minute)
	f.lrm.SendUpdate()
	if got := doneIn(2); len(got) != 1 || got[0] != "app/t1" {
		t.Fatalf("third update carried %v, want t1's completion only", got)
	}
}

// TestSyncTasksRacesSendUpdate: one goroutine syncs the node, queueing
// completions into the outbox, while another sends updates, which take the
// outbox and the window array, send them and hand them back — and one update
// in three fails, putting its completions back in front of what was queued
// meanwhile. Under -race the hand-offs race each other; either way every
// completion is delivered exactly once, since the manager fails an update
// before reading it.
func TestSyncTasksRacesSendUpdate(t *testing.T) {
	const tasks = 16
	spec := dedicatedSpec(2 * 400 * tasks) // room to spare under the NCC share
	spec.Capacity.RAMMB = 2 * 64 * tasks
	f := newFixture(t, spec, nil, ncc.Generous())
	for i := range tasks {
		f.startTask(t, "app", fmt.Sprintf("app/t%02d", i), 400*30*float64(i+1)) // done after (i+1)×30 s
	}
	var (
		stop    atomic.Bool
		updates atomic.Int64
		wg      sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			f.lrm.SyncTasks()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			f.grm.mu.Lock()
			f.grm.failNext = i%3 == 0
			f.grm.mu.Unlock()
			f.lrm.SendUpdate()
			updates.Add(1)
		}
	}()
	for range tasks {
		f.clock.Advance(30 * time.Second)
		// Let a few updates, failed and accepted, see each completion.
		for seen := updates.Load(); updates.Load() < seen+4; {
			time.Sleep(100 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()

	f.grm.mu.Lock()
	f.grm.failNext = false
	f.grm.mu.Unlock()
	f.lrm.SendUpdate()
	if got := f.lrm.Stats(); got.TasksCompleted != tasks || got.UpdateFailures == 0 {
		t.Fatalf("stats = %+v, want %d completions and some failed updates", got, tasks)
	}
	seen := make(map[string]int)
	for _, ev := range f.grm.rodeOfKind(protocol.TaskEventDone) {
		seen[ev.TaskID]++
	}
	for i := range tasks {
		if id := fmt.Sprintf("app/t%02d", i); seen[id] != 1 {
			t.Errorf("%s's completion was delivered %d times, want once", id, seen[id])
		}
	}
	if len(seen) != tasks {
		t.Errorf("completions delivered for %d tasks, want %d: %v", len(seen), tasks, seen)
	}
}

// TestAdoptRacesSendUpdate: two managers take turns calling the LRM to
// register with them, each call's registration run at once by the update
// loop on the clock, while external SendUpdate calls go out from another
// goroutine. Every call from the manager the LRM does not report to moves
// it, once, with one reconcile of its running task; run it under -race.
func TestAdoptRacesSendUpdate(t *testing.T) {
	const calls = 50
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	f.startTask(t, "app", "app/t0", 1e9)
	f.grm.epoch = 2
	next := &fakeGRM{epoch: 2}
	managers := [2]*fakeGRM{f.grm, next}
	refs := [2]orb.ObjectRef{reportsTo(f.lrm), f.bindGRM(t, "next", next)}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			f.lrm.SendUpdate()
		}
	}()
	for i := 1; i <= calls; i++ {
		if _, err := protocol.Adopt.Invoke(f.o, f.lrmC.ref, protocol.AdoptRequest{Epoch: 2, GRM: refs[i%2]}); err != nil {
			t.Error(err)
		}
		f.clock.Advance(0)
	}
	stop.Store(true)
	wg.Wait()

	if got := reportsTo(f.lrm); got != refs[calls%2] {
		t.Fatalf("reporting to %v, want the last caller %v", got, refs[calls%2])
	}
	_, _, home := managers[0].counts()
	_, _, away := managers[1].counts()
	if st := f.lrm.Stats(); st.Reregistrations != calls || home+away != calls || st.UpdateFailures != 0 {
		t.Fatalf("stats = %+v after %d reconciles; want %d re-registrations and reconciles, no failed update",
			st, home+away, calls)
	}
}

// TestReportEvictedSendsOnePromptedUpdate: evictions reported from outside
// the LRM's sync go out at once, together, in one prompted update, and the
// periodic update after it carries none of them again.
func TestReportEvictedSendsOnePromptedUpdate(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	f.startTask(t, "app", "app/t0", 400*3600)
	f.startTask(t, "app", "app/t1", 400*3600)
	f.clock.Advance(time.Minute)
	evicted := []*node.Task{f.node.CancelTask(f.clock.Now(), "app/t0"), f.node.CancelTask(f.clock.Now(), "app/t1")}
	f.lrm.ReportEvicted(evicted)
	if n := f.grm.updateCount(); n != 1 || !f.grm.lastUpdate().Prompted {
		t.Fatalf("%d updates, the last prompted %v; want one prompted update", n, f.grm.lastUpdate().Prompted)
	}
	if got := f.grm.eventList(); len(got) != 2 || got[0].TaskID != "app/t0" || got[1].TaskID != "app/t1" || got[0].Progress <= 0 {
		t.Fatalf("evictions delivered %+v, want t0's and t1's with their progress", got)
	}
	f.lrm.SendUpdate()
	if n := f.grm.updateCount(); n != 2 || f.grm.lastUpdate().Prompted || len(f.grm.eventList()) != 2 {
		t.Fatalf("%d updates, the last prompted %v, evictions %+v; want one more, periodic, with none", n, f.grm.lastUpdate().Prompted, f.grm.eventList())
	}
	if got := f.lrm.Stats(); got.TasksEvicted != 2 || got.UpdatesSent != 2 {
		t.Fatalf("stats = %+v, want 2 evictions and 2 updates sent", got)
	}
}

// TestRetoldEvictionDroppedWhenTaskRunsAgain: an eviction whose update failed
// waits in the outbox for the next one, unless the manager, which had heard
// of it, started the same task on the node again meanwhile — after the
// update failed, or while it was on its way and its reply was lost: that
// eviction speaks of the earlier run, and retold it would make the manager
// re-place the new one. An eviction of a task not started again is still
// retold.
func TestRetoldEvictionDroppedWhenTaskRunsAgain(t *testing.T) {
	f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
	f.startTask(t, "app", "app/t0", 400*3600)
	f.startTask(t, "app", "app/t1", 400*3600)
	f.clock.Advance(time.Minute)
	f.grm.setDown(true)
	evicted := []*node.Task{f.node.CancelTask(f.clock.Now(), "app/t0"), f.node.CancelTask(f.clock.Now(), "app/t1")}
	f.lrm.ReportEvicted(evicted) // the update carrying both is lost
	f.grm.setDown(false)
	if got := f.lrm.Stats(); got.UpdateFailures != 1 || f.grm.updateCount() != 0 {
		t.Fatalf("stats = %+v with %d updates received, want the one update lost", got, f.grm.updateCount())
	}

	f.startTask(t, "app", "app/t0", 400*3600)
	f.lrm.SendUpdate()
	if got := f.grm.eventList(); len(got) != 1 || got[0].Kind != protocol.TaskEventEvicted || got[0].TaskID != "app/t1" {
		t.Fatalf("evictions retold %+v, want t1's alone", got)
	}
	if got := f.grm.rodeOfKind(protocol.TaskEventProgress); len(got) != 1 || got[0].TaskID != "app/t0" {
		t.Fatalf("progress reported %+v, want the new run of t0", got)
	}

	// The new run is evicted too, and the manager restarts it here as it
	// applies the update, whose reply is then lost.
	f.clock.Advance(time.Minute)
	f.grm.arrived = func() {
		f.grm.arrived, f.grm.failNext = nil, true
		f.startTask(t, "app", "app/t0", 400*3600)
	}
	f.lrm.ReportEvicted([]*node.Task{f.node.CancelTask(f.clock.Now(), "app/t0")})
	f.lrm.SendUpdate()
	if got := f.grm.eventList(); len(got) != 1 {
		t.Fatalf("evictions retold %+v, want t1's alone", got)
	}
	if got := f.lrm.Stats(); got.TasksEvicted != 3 || got.UpdateFailures != 2 || got.TasksStarted != 4 {
		t.Fatalf("stats = %+v, want 3 evictions, 2 lost updates and 4 starts", got)
	}
}

package lrm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/ncc"
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
	refs := [2]orb.ObjectRef{f.lrm.grmClient().Ref(), f.bindGRM(t, "next", next)}
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

	if got := f.lrm.grmClient().Ref(); got != refs[calls%2] {
		t.Fatalf("reporting to %v, want the last caller %v", got, refs[calls%2])
	}
	_, _, home := managers[0].counts()
	_, _, away := managers[1].counts()
	if st := f.lrm.Stats(); st.Reregistrations != calls || home+away != calls || st.UpdateFailures != 0 {
		t.Fatalf("stats = %+v after %d reconciles; want %d re-registrations and reconciles, no failed update",
			st, home+away, calls)
	}
}

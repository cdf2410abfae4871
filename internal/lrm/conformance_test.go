package lrm

import (
	"slices"
	"testing"
	"time"

	"integrade/internal/ncc"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
)

// TestScriptedGRMConformance plays a misbehaving GRM — the typed stub, sending
// what no real manager sends — against a real LRM over the loopback ORB on
// the virtual clock. The node has four 250-MIPS slots. Each script states the
// answer it must get and what the node must look like afterwards: its live
// holds, what it has committed, the tasks it runs. The package's TestMain adds
// that no goroutine leaks.
func TestScriptedGRMConformance(t *testing.T) {
	slot := resource.Vector{MIPS: 250, RAMMB: 64}
	reserve := func(f *fixture, count, epoch int) protocol.ReserveReply {
		t.Helper()
		reply, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "app", Amount: slot, TTL: time.Minute, Epoch: epoch, Count: count})
		if err != nil {
			t.Fatalf("reserve %d: %v", count, err)
		}
		return reply
	}
	execute := func(f *fixture, epoch int, pairs ...string) error {
		req := protocol.ExecuteRequest{AppID: "app", Alloc: slot, Epoch: epoch}
		for i := 0; i < len(pairs); i += 2 {
			req.Tasks = append(req.Tasks, protocol.TaskStart{ReservationID: pairs[i], TaskID: pairs[i+1], Work: 1e9})
		}
		return f.lrmC.Execute(req)
	}

	for _, tc := range []struct {
		name   string
		script func(t *testing.T, f *fixture)
		holds  int      // live reservations afterwards
		slots  int      // slots committed afterwards
		tasks  []string // tasks running afterwards
	}{
		{
			name: "a Reserve for no hold or for too many is a marshal error and touches nothing",
			script: func(t *testing.T, f *fixture) {
				for _, n := range []int{0, protocol.MaxHolds + 1} {
					_, err := f.lrmC.Reserve(protocol.ReserveRequest{Holder: "app", Amount: slot, TTL: time.Minute, Count: n})
					if !orb.IsCode(err, orb.CodeMarshal) {
						t.Errorf("reserve for %d holds: %v, want a marshal error", n, err)
					}
				}
				if err := execute(f, 0); !orb.IsCode(err, orb.CodeMarshal) {
					t.Errorf("execute of no task: %v, want a marshal error", err)
				}
				if st := f.lrm.Stats(); st.ReserveRequests != 0 {
					t.Errorf("%d Reserves reached the handler", st.ReserveRequests)
				}
			},
		},
		{
			name: "more than fits: the holds that fit, and why no more",
			script: func(t *testing.T, f *fixture) {
				reply := reserve(f, 6, 0)
				if !reply.Granted || len(reply.IDs()) != 4 || reply.Reason == "" {
					t.Errorf("asked six of a four-slot node: %+v", reply)
				}
				if again := reserve(f, 1, 0); again.Granted || len(again.IDs()) != 0 {
					t.Errorf("a full node granted %+v", again)
				}
				if st := f.lrm.Stats(); st.ReserveRequests != 2 || st.ReserveGrants != 4 || st.ReserveRefusals != 1 {
					t.Errorf("stats after 2 calls, 4 holds, 1 refusal: %+v", st)
				}
			},
			holds: 4,
		},
		{
			name: "one unknown reservation among four: nothing committed, nothing started",
			script: func(t *testing.T, f *fixture) {
				ids := reserve(f, 3, 0).IDs()
				err := execute(f, 0, ids[0], "t0", ids[1], "t1", "ghost", "t2", ids[2], "t3")
				if !orb.IsCode(err, orb.CodeApplication) {
					t.Errorf("execute naming an unknown hold: %v", err)
				}
			},
			// The two holds the call consumed before it met the unknown one
			// are freed, not kept: the GRM releases what it was granted anyway.
			holds: 1,
		},
		{
			name: "one expired reservation among four: nothing committed, nothing started",
			script: func(t *testing.T, f *fixture) {
				old := reserve(f, 1, 0).IDs()
				f.clock.Advance(2 * time.Minute)
				ids := reserve(f, 3, 0).IDs()
				err := execute(f, 0, ids[0], "t0", ids[1], "t1", ids[2], "t2", old[0], "t3")
				if !orb.IsCode(err, orb.CodeApplication) {
					t.Errorf("execute naming an expired hold: %v", err)
				}
			},
		},
		{
			name: "a stale epoch is refused whole",
			script: func(t *testing.T, f *fixture) {
				ids := reserve(f, 2, 5).IDs()
				if reply := reserve(f, 2, 4); reply.Granted || len(reply.IDs()) != 0 {
					t.Errorf("a deposed manager was granted %+v", reply)
				}
				if err := execute(f, 4, ids[0], "t0", ids[1], "t1"); !orb.IsCode(err, orb.CodeApplication) {
					t.Errorf("a deposed manager's execute: %v", err)
				}
				if got := f.lrm.Stats().StaleEpochRejections; got != 2 {
					t.Errorf("StaleEpochRejections = %d, want 2", got)
				}
			},
			holds: 2,
		},
		{
			name: "the same Execute twice: the second is refused and starts nothing",
			script: func(t *testing.T, f *fixture) {
				ids := reserve(f, 2, 0).IDs()
				if err := execute(f, 0, ids[0], "t0", ids[1], "t1"); err != nil {
					t.Fatal(err)
				}
				if err := execute(f, 0, ids[0], "t0", ids[1], "t1"); !orb.IsCode(err, orb.CodeApplication) {
					t.Errorf("the repeated execute: %v", err)
				}
				if got := f.lrm.Stats().TasksStarted; got != 2 {
					t.Errorf("TasksStarted = %d, want 2", got)
				}
			},
			slots: 2, tasks: []string{"t0", "t1"},
		},
		{
			name: "a task ID already running: the call starts nothing and the running task stays",
			script: func(t *testing.T, f *fixture) {
				ids := reserve(f, 3, 0).IDs()
				if err := execute(f, 0, ids[0], "t0"); err != nil {
					t.Fatal(err)
				}
				if err := execute(f, 0, ids[1], "t1", ids[2], "t0"); !orb.IsCode(err, orb.CodeApplication) {
					t.Errorf("execute of a running task ID: %v", err)
				}
			},
			slots: 1, tasks: []string{"t0"},
		},
		{
			name: "one task ID twice in a call: neither copy runs",
			script: func(t *testing.T, f *fixture) {
				ids := reserve(f, 2, 0).IDs()
				if err := execute(f, 0, ids[0], "t0", ids[1], "t0"); !orb.IsCode(err, orb.CodeApplication) {
					t.Errorf("execute of one task ID twice: %v", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
			tc.script(t, f)
			now := f.clock.Now()
			ledger := f.node.Ledger()
			if out := ledger.Outstanding(now); len(out) != tc.holds {
				t.Errorf("%d live holds, want %d: %v", len(out), tc.holds, out)
			}
			if got, want := ledger.Committed(), slot.Scale(float64(tc.slots)); got != want {
				t.Errorf("committed %v, want %v", got, want)
			}
			if got := f.node.RunningTasks(); !slices.Equal(got, tc.tasks) {
				t.Errorf("running %v, want %v", got, tc.tasks)
			}
			if got := f.lrm.Stats().TasksStarted; got != len(tc.tasks) {
				t.Errorf("TasksStarted = %d, want %d", got, len(tc.tasks))
			}
		})
	}
}

// TestAdoptConformance plays a manager's Adopt calls against a real LRM that
// runs one task and reports to its first manager: a call below the fence is
// refused, one from the manager the LRM reports to changes nothing, and one
// from a new manager registers the LRM with it once the call has returned.
func TestAdoptConformance(t *testing.T) {
	adopt := func(f *fixture, epoch int, ref orb.ObjectRef) error {
		_, err := protocol.Adopt.Invoke(f.lrmC.inv, f.lrmC.ref, protocol.AdoptRequest{Epoch: epoch, GRM: ref})
		return err
	}
	setup := func(t *testing.T) (f *fixture, home orb.ObjectRef, next *fakeGRM, nextRef orb.ObjectRef) {
		f = newFixture(t, dedicatedSpec(1000), nil, ncc.Generous())
		f.startTask(t, "app", "app/t0", 1e9)
		next = &fakeGRM{epoch: 3}
		return f, reportsTo(f.lrm), next, f.bindGRM(t, "next", next)
	}

	t.Run("a call below the fence is refused and counted", func(t *testing.T) {
		f, home, next, nextRef := setup(t)
		if err := adopt(f, 5, home); err != nil {
			t.Fatal(err)
		}
		if err := adopt(f, 4, nextRef); !orb.IsCode(err, orb.CodeApplication) {
			t.Fatalf("adopt at epoch 4 below fence 5: %v, want an application error", err)
		}
		f.clock.Advance(time.Second)
		if st := f.lrm.Stats(); st.StaleEpochRejections != 1 || st.Reregistrations != 0 {
			t.Fatalf("stats = %+v, want one stale rejection and no re-registration", st)
		}
		if updates, _, reconciles := next.counts(); updates != 0 || reconciles != 0 || f.lrm.Fence() != 5 {
			t.Fatalf("the refused manager got %d updates and %d reconciles, fence %d; want none, fence 5",
				updates, reconciles, f.lrm.Fence())
		}
	})
	t.Run("a call from the manager the LRM reports to changes nothing", func(t *testing.T) {
		f, home, _, _ := setup(t)
		if err := adopt(f, 2, home); err != nil {
			t.Fatal(err)
		}
		f.clock.Advance(time.Second)
		updates, _, reconciles := f.grm.counts()
		if st := f.lrm.Stats(); updates != 0 || reconciles != 0 || st.Reregistrations != 0 {
			t.Fatalf("%d updates, %d reconciles, %d re-registrations; want none", updates, reconciles, st.Reregistrations)
		}
		if got := f.lrm.Fence(); got != 2 {
			t.Fatalf("Fence = %d, want 2", got)
		}
	})
	t.Run("a call from a new manager registers with it once", func(t *testing.T) {
		f, _, next, nextRef := setup(t)
		if err := adopt(f, 3, nextRef); err != nil {
			t.Fatal(err)
		}
		if updates, _, _ := next.counts(); updates != 0 {
			t.Fatalf("the new manager got %d updates before the call returned, want 0", updates)
		}
		f.clock.Advance(time.Second)
		updates, _, reconciles := next.counts()
		if st := f.lrm.Stats(); updates != 1 || reconciles != 1 || st.Reregistrations != 1 {
			t.Fatalf("%d updates, %d reconciles, %d re-registrations; want one each", updates, reconciles, st.Reregistrations)
		}
		if got := reportsTo(f.lrm); got != nextRef || f.lrm.Fence() != 3 {
			t.Fatalf("reporting to %v at fence %d, want %v at 3", got, f.lrm.Fence(), nextRef)
		}
	})
}

package bsp

import (
	"sync"
	"testing"
)

// TestRequestCheckpointForcesOffCadenceCheckpoint covers the proactive
// pre-departure checkpoint: with a cadence far beyond the run length, the
// only checkpoint taken is the one requested mid-run, it lands at the next
// barrier, and restoring from it reproduces the uninterrupted result.
func TestRequestCheckpointForcesOffCadenceCheckpoint(t *testing.T) {
	const nprocs = 3
	const supersteps = 5
	rec := &checkpointRecorder{}

	r, err := NewRuntime(nprocs, WithCheckpoint(100, rec))
	if err != nil {
		t.Fatal(err)
	}
	// No-op before the run starts.
	r.requestCheckpoint()

	program := func(p *Proc) error {
		var sum uint64
		if st := p.Restored(); st != nil {
			sum = fromU64(st)
		}
		p.SetState(func() []byte { return u64(sum) })
		for p.Superstep() < supersteps {
			sum += uint64(p.Superstep() + 1)
			if p.PID() == 0 && p.Superstep() == 1 {
				// The drain path: an external signal asks for a checkpoint
				// before the next barrier, off the configured cadence.
				r.requestCheckpoint()
			}
			if err := p.Sync(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := r.Run(program); err != nil {
		t.Fatal(err)
	}
	if got := r.stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want exactly 1 (forced, none from cadence)", got)
	}
	rec.mu.Lock()
	steps := append([]int(nil), rec.steps...)
	states := rec.last
	rec.mu.Unlock()
	// Requested during superstep 2 (index 1), so it lands at that barrier.
	if len(steps) != 1 || steps[0] != 2 {
		t.Fatalf("checkpoint steps = %v, want [2] (the next barrier)", steps)
	}

	// A gang restarted from the forced checkpoint finishes with the same
	// result as the uninterrupted run.
	wantSum := uint64(1 + 2 + 3 + 4 + 5)
	r2, err := NewRuntime(nprocs, WithRestore(2, states))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	finals := map[int]uint64{}
	err = r2.Run(func(p *Proc) error {
		var sum uint64
		if st := p.Restored(); st != nil {
			sum = fromU64(st)
		}
		p.SetState(func() []byte { return u64(sum) })
		for p.Superstep() < supersteps {
			sum += uint64(p.Superstep() + 1)
			if err := p.Sync(); err != nil {
				return err
			}
		}
		mu.Lock()
		finals[p.PID()] = sum
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, sum := range finals {
		if sum != wantSum {
			t.Fatalf("pid %d resumed sum = %d, want %d", pid, sum, wantSum)
		}
	}

	// The force flag is one-shot: a fresh run with the same runtime config
	// and no request takes no checkpoints at all.
	rec2 := &checkpointRecorder{}
	r3, err := NewRuntime(nprocs, WithCheckpoint(100, rec2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.Run(program); err == nil {
		// program requests on r, not r3: r3 never checkpoints.
		if got := r3.stats().Checkpoints; got != 0 {
			t.Fatalf("unforced run checkpoints = %d, want 0", got)
		}
	} else {
		t.Fatal(err)
	}
}

package bsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func fromU64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(0); err == nil {
		t.Fatal("nprocs=0 accepted")
	}
	if _, err := NewRuntime(3, WithRestore(1, make([][]byte, 2))); err == nil {
		t.Fatal("mismatched restore states accepted")
	}
}

func TestMessageDeliveryNextSuperstep(t *testing.T) {
	r, err := NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(func(p *Proc) error {
		// Superstep 0: everyone sends its PID to the next process.
		next := (p.PID() + 1) % p.NProcs()
		if err := p.Send(next, u64(uint64(p.PID()))); err != nil {
			return err
		}
		// Messages must NOT be visible before the barrier.
		if _, ok := p.Move(); ok {
			return errors.New("message visible before Sync")
		}
		if err := p.Sync(); err != nil {
			return err
		}
		msg, ok := p.Move()
		if !ok {
			return errors.New("no message after Sync")
		}
		want := uint64((p.PID() + p.NProcs() - 1) % p.NProcs())
		if fromU64(msg) != want {
			return fmt.Errorf("pid %d got %d, want %d", p.PID(), fromU64(msg), want)
		}
		if _, ok := p.Move(); ok {
			return errors.New("extra message")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.stats()
	if st.Supersteps != 1 || st.MessagesSent != 4 || st.MaxH != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDRMAPutGet(t *testing.T) {
	r, err := NewRuntime(3)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(func(p *Proc) error {
		p.Register("cell", u64(uint64(p.PID())))
		if err := p.Sync(); err != nil { // ensure all registers exist
			return err
		}
		// Everyone puts PID*10 into process 0's cell... last writer wins is
		// nondeterministic, so only process 2 writes.
		if p.PID() == 2 {
			if err := p.Put(0, "cell", u64(42)); err != nil {
				return err
			}
		}
		var got []byte
		if err := p.Get(2, "cell", &got); err != nil {
			return err
		}
		if err := p.Sync(); err != nil {
			return err
		}
		// Get observed the value as of the barrier (2's register is still 2
		// because the put targeted process 0).
		if fromU64(got) != 2 {
			return fmt.Errorf("get = %d, want 2", fromU64(got))
		}
		if p.PID() == 0 {
			v, err := p.Local("cell")
			if err != nil {
				return err
			}
			if fromU64(v) != 42 {
				return fmt.Errorf("local cell = %d, want 42", fromU64(v))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutToMissingRegisterAborts(t *testing.T) {
	r, _ := NewRuntime(2)
	err := r.Run(func(p *Proc) error {
		if p.PID() == 0 {
			if err := p.Put(1, "ghost", u64(1)); err != nil {
				return err
			}
		}
		return p.Sync()
	})
	if !errors.Is(err, ErrNoRegister) && !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
}

func TestProcErrorAbortsPeers(t *testing.T) {
	r, _ := NewRuntime(4)
	boom := errors.New("boom")
	err := r.Run(func(p *Proc) error {
		if p.PID() == 2 {
			return boom
		}
		// Peers would block forever at the barrier without abort handling.
		return p.Sync()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestProcPanicBecomesError(t *testing.T) {
	r, _ := NewRuntime(2)
	err := r.Run(func(p *Proc) error {
		if p.PID() == 1 {
			panic("kaboom")
		}
		return p.Sync()
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestSendBounds(t *testing.T) {
	r, _ := NewRuntime(2)
	err := r.Run(func(p *Proc) error {
		if err := p.Send(5, nil); err == nil {
			return errors.New("out-of-range send accepted")
		}
		if err := p.Put(-1, "x", nil); err == nil {
			return errors.New("out-of-range put accepted")
		}
		if err := p.Get(9, "x", new([]byte)); err == nil {
			return errors.New("out-of-range get accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkpointRecorder stores every snapshot.
type checkpointRecorder struct {
	mu    sync.Mutex
	steps []int
	last  [][]byte
}

func (c *checkpointRecorder) Save(superstep int, states [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps = append(c.steps, superstep)
	c.last = make([][]byte, len(states))
	for i, s := range states {
		c.last[i] = append([]byte(nil), s...)
	}
	return nil
}

func TestCheckpointAndRestore(t *testing.T) {
	const nprocs = 4
	const supersteps = 6
	rec := &checkpointRecorder{}

	// Program: accumulate sum of (superstep+1) over supersteps; state is
	// the running sum.
	program := func(p *Proc) error {
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
		p.Register("result", u64(sum))
		return nil
	}

	r, err := NewRuntime(nprocs, WithCheckpoint(2, rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(program); err != nil {
		t.Fatal(err)
	}
	wantSum := uint64(1 + 2 + 3 + 4 + 5 + 6)
	if got := r.stats().Checkpoints; got != 3 {
		t.Fatalf("checkpoints = %d, want 3 (every 2 of 6 supersteps)", got)
	}
	rec.mu.Lock()
	steps := append([]int(nil), rec.steps...)
	lastStates := rec.last
	rec.mu.Unlock()
	if len(steps) != 3 || steps[0] != 2 || steps[2] != 6 {
		t.Fatalf("checkpoint steps = %v", steps)
	}
	if fromU64(lastStates[0]) != wantSum {
		t.Fatalf("final checkpoint state = %d, want %d", fromU64(lastStates[0]), wantSum)
	}

	// Crash-and-restore: take the superstep-4 checkpoint and resume; the
	// final sum must equal the uninterrupted run.
	var statesAt4 [][]byte
	rec2 := &checkpointRecorder{}
	r2, _ := NewRuntime(nprocs, WithCheckpoint(4, rec2))
	if err := r2.Run(program); err != nil {
		t.Fatal(err)
	}
	statesAt4 = rec2.last

	r3, err := NewRuntime(nprocs, WithRestore(4, statesAt4))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	finals := map[int]uint64{}
	err = r3.Run(func(p *Proc) error {
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
}

// Property: a BSP all-to-all sum is deterministic and equals the serial
// result regardless of process count.
func TestAllReduceProperty(t *testing.T) {
	f := func(seed uint16, nprocsRaw uint8) bool {
		nprocs := int(nprocsRaw%8) + 1
		values := make([]uint64, nprocs)
		var want uint64
		for i := range values {
			values[i] = uint64(seed) + uint64(i*i)
			want += values[i]
		}
		r, err := NewRuntime(nprocs)
		if err != nil {
			return false
		}
		results := make([]uint64, nprocs)
		err = r.Run(func(p *Proc) error {
			// All-to-all: send my value to everyone (including self).
			for q := 0; q < p.NProcs(); q++ {
				if err := p.Send(q, u64(values[p.PID()])); err != nil {
					return err
				}
			}
			if err := p.Sync(); err != nil {
				return err
			}
			var sum uint64
			for {
				msg, ok := p.Move()
				if !ok {
					break
				}
				sum += fromU64(msg)
			}
			results[p.PID()] = sum
			return nil
		})
		if err != nil {
			return false
		}
		for _, got := range results {
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExitWithoutSyncWhilePeersWaitAborts(t *testing.T) {
	r, _ := NewRuntime(2)
	err := r.Run(func(p *Proc) error {
		if p.PID() == 0 {
			return nil // exits immediately, never syncs
		}
		return p.Sync() // would deadlock without leaver detection
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestManySuperstepsStats(t *testing.T) {
	r, _ := NewRuntime(3)
	const steps = 50
	err := r.Run(func(p *Proc) error {
		for s := 0; s < steps; s++ {
			if err := p.Send((p.PID()+1)%3, make([]byte, 100)); err != nil {
				return err
			}
			if err := p.Sync(); err != nil {
				return err
			}
			p.Move()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.stats()
	if st.Supersteps != steps {
		t.Fatalf("Supersteps = %d", st.Supersteps)
	}
	if st.MessagesSent != 3*steps {
		t.Fatalf("MessagesSent = %d", st.MessagesSent)
	}
	if st.BytesSent != int64(3*steps*100) {
		t.Fatalf("BytesSent = %d", st.BytesSent)
	}
}

func TestLocalMissingRegister(t *testing.T) {
	r, _ := NewRuntime(1)
	err := r.Run(func(p *Proc) error {
		if _, err := p.Local("nope"); !errors.Is(err, ErrNoRegister) {
			return fmt.Errorf("Local err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

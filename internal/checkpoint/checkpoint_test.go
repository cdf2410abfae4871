package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/bsp"
)

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func fromU64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func TestStoreSaveLatestDrop(t *testing.T) {
	now := time.Unix(100, 0)
	st := NewStore(func() time.Time { return now })
	if err := st.Save("", 1, nil); err == nil {
		t.Fatal("empty app ID accepted")
	}
	if err := st.Save("app", 2, [][]byte{u64(7), u64(8)}); err != nil {
		t.Fatal(err)
	}
	cp, err := st.Latest("app")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Superstep != 2 || len(cp.States) != 2 || !cp.TakenAt.Equal(now) {
		t.Fatalf("snapshot = %+v", cp)
	}
	if cp.Bytes() != 16 {
		t.Fatalf("Bytes = %d", cp.Bytes())
	}
	// Later save replaces.
	if err := st.Save("app", 4, [][]byte{u64(9), u64(10)}); err != nil {
		t.Fatal(err)
	}
	cp, _ = st.Latest("app")
	if cp.Superstep != 4 {
		t.Fatalf("superstep = %d", cp.Superstep)
	}
	if got := st.Apps(); len(got) != 1 || got[0] != "app" {
		t.Fatalf("Apps = %v", got)
	}
	st.Drop("app")
	if _, err := st.Latest("app"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v", err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	st := NewStore(nil)
	state := u64(1)
	if err := st.Save("app", 1, [][]byte{state}); err != nil {
		t.Fatal(err)
	}
	state[0] = 0xFF // mutate caller's buffer
	cp, _ := st.Latest("app")
	if fromU64(cp.States[0]) != 1 {
		t.Fatal("store aliased caller's state buffer")
	}
}

// crashyProgram counts supersteps; it fails at failAt on process 0 on the
// first run (simulating an eviction mid-computation).
func crashyProgram(totalSteps int, failAt int, failed *atomic.Bool, finalSums *[8]uint64) bsp.Program {
	return func(p *bsp.Proc) error {
		var sum uint64
		if st := p.Restored(); st != nil {
			sum = fromU64(st)
		}
		p.SetState(func() []byte { return u64(sum) })
		for p.Superstep() < totalSteps {
			if p.PID() == 0 && p.Superstep() == failAt && !failed.Load() {
				failed.Store(true)
				return fmt.Errorf("injected node failure at superstep %d", failAt)
			}
			sum += uint64(p.Superstep() + 1)
			if err := p.Sync(); err != nil {
				return err
			}
		}
		finalSums[p.PID()] = sum
		return nil
	}
}

func TestResumeRecoversFromFailure(t *testing.T) {
	const nprocs = 4
	const steps = 10
	st := NewStore(time.Now)
	var failed atomic.Bool
	var sums [8]uint64
	program := crashyProgram(steps, 7, &failed, &sums)

	// First run fails at superstep 7 with checkpoints every 3 supersteps
	// (so the latest checkpoint is at superstep 6).
	err := Resume(st, "job", nprocs, 3, program)
	if err == nil {
		t.Fatal("first run succeeded despite injected failure")
	}
	cp, err := st.Latest("job")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Superstep != 6 {
		t.Fatalf("checkpoint superstep = %d, want 6", cp.Superstep)
	}

	// Second run restores from superstep 6 and completes.
	if err := Resume(st, "job", nprocs, 3, program); err != nil {
		t.Fatal(err)
	}
	want := uint64(steps * (steps + 1) / 2) // 1+2+...+10
	for pid := 0; pid < nprocs; pid++ {
		if sums[pid] != want {
			t.Fatalf("pid %d sum = %d, want %d (work lost or repeated)", pid, sums[pid], want)
		}
	}
	// Successful completion drops the snapshot.
	if _, err := st.Latest("job"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("snapshot not dropped: %v", err)
	}
}

func TestResumeProcCountMismatch(t *testing.T) {
	st := NewStore(nil)
	if err := st.Save("job", 2, [][]byte{u64(1), u64(2)}); err != nil {
		t.Fatal(err)
	}
	err := Resume(st, "job", 3, 1, func(p *bsp.Proc) error { return nil })
	if err == nil {
		t.Fatal("mismatched proc count accepted")
	}
}

func TestResumeFreshStart(t *testing.T) {
	st := NewStore(nil)
	ran := make([]atomic.Int32, 1)
	err := Resume(st, "fresh", 2, 1, func(p *bsp.Proc) error {
		if p.Restored() != nil {
			return errors.New("fresh run saw restored state")
		}
		ran[0].Add(1)
		return p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran[0].Load() != 2 {
		t.Fatalf("ran = %d", ran[0].Load())
	}
}

package bsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestBroadcast(t *testing.T) {
	const nprocs = 5
	r, _ := NewRuntime(nprocs)
	var mu sync.Mutex
	got := make(map[int]string)
	err := r.Run(func(p *Proc) error {
		msg, err := p.Broadcast(2, []byte("hello from 2"))
		if err != nil {
			return err
		}
		mu.Lock()
		got[p.PID()] = string(msg)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < nprocs; pid++ {
		if got[pid] != "hello from 2" {
			t.Fatalf("pid %d got %q", pid, got[pid])
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	r, _ := NewRuntime(2)
	err := r.Run(func(p *Proc) error {
		_, err := p.Broadcast(7, nil)
		if err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherOrdersByPID(t *testing.T) {
	const nprocs = 6
	r, _ := NewRuntime(nprocs)
	var rootGot [][]byte
	err := r.Run(func(p *Proc) error {
		payload := []byte{byte(p.PID() * 10)}
		res, err := p.Gather(0, payload)
		if err != nil {
			return err
		}
		if p.PID() == 0 {
			rootGot = res
		} else if res != nil {
			return fmt.Errorf("non-root received gather result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootGot) != nprocs {
		t.Fatalf("gathered %d", len(rootGot))
	}
	for q, m := range rootGot {
		if len(m) != 1 || m[0] != byte(q*10) {
			t.Fatalf("slot %d = %v", q, m)
		}
	}
}

func TestAllReduce(t *testing.T) {
	const nprocs = 7
	r, _ := NewRuntime(nprocs)
	var mu sync.Mutex
	sums := make([]float64, nprocs)
	maxes := make([]float64, nprocs)
	err := r.Run(func(p *Proc) error {
		v := float64(p.PID() + 1)
		s, err := p.AllReduceFloat64(v, Sum)
		if err != nil {
			return err
		}
		m, err := p.AllReduceFloat64(v, Max)
		if err != nil {
			return err
		}
		mu.Lock()
		sums[p.PID()] = s
		maxes[p.PID()] = m
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(nprocs * (nprocs + 1) / 2)
	for pid := 0; pid < nprocs; pid++ {
		if sums[pid] != want {
			t.Fatalf("pid %d sum = %v, want %v", pid, sums[pid], want)
		}
		if maxes[pid] != float64(nprocs) {
			t.Fatalf("pid %d max = %v", pid, maxes[pid])
		}
	}
}

func TestPrefixSum(t *testing.T) {
	const nprocs = 8
	r, _ := NewRuntime(nprocs)
	var mu sync.Mutex
	scans := make([]float64, nprocs)
	err := r.Run(func(p *Proc) error {
		v := float64(p.PID() + 1)
		s, err := p.PrefixSumFloat64(v)
		if err != nil {
			return err
		}
		mu.Lock()
		scans[p.PID()] = s
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < nprocs; pid++ {
		want := float64((pid + 1) * (pid + 2) / 2) // 1+2+...+(pid+1)
		if scans[pid] != want {
			t.Fatalf("pid %d scan = %v, want %v", pid, scans[pid], want)
		}
	}
}

func TestExchange(t *testing.T) {
	const nprocs = 4
	r, _ := NewRuntime(nprocs)
	err := r.Run(func(p *Proc) error {
		payloads := make([][]byte, nprocs)
		for q := range payloads {
			// payload encodes (sender, receiver).
			payloads[q] = []byte{byte(p.PID()), byte(q)}
		}
		got, err := p.Exchange(payloads)
		if err != nil {
			return err
		}
		for q, m := range got {
			if len(m) != 2 || int(m[0]) != q || int(m[1]) != p.PID() {
				return fmt.Errorf("pid %d slot %d = %v", p.PID(), q, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeWrongArity(t *testing.T) {
	r, _ := NewRuntime(2)
	err := r.Run(func(p *Proc) error {
		if _, err := p.Exchange(make([][]byte, 5)); err == nil {
			return fmt.Errorf("wrong arity accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: AllReduce(Sum) equals the serial sum for arbitrary values and
// process counts; Min/Max agree with serial folds.
func TestAllReduceProperty2(t *testing.T) {
	f := func(raw []uint16, np uint8) bool {
		nprocs := int(np%6) + 2
		values := make([]float64, nprocs)
		for i := range values {
			if i < len(raw) {
				values[i] = float64(raw[i])
			} else {
				values[i] = float64(i)
			}
		}
		var wantSum float64
		wantMin, wantMax := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			wantSum += v
			wantMin = math.Min(wantMin, v)
			wantMax = math.Max(wantMax, v)
		}
		r, err := NewRuntime(nprocs)
		if err != nil {
			return false
		}
		var mu sync.Mutex
		bad := false
		err = r.Run(func(p *Proc) error {
			s, err := p.AllReduceFloat64(values[p.PID()], Sum)
			if err != nil {
				return err
			}
			mn, err := p.AllReduceFloat64(values[p.PID()], Min)
			if err != nil {
				return err
			}
			mx, err := p.AllReduceFloat64(values[p.PID()], Max)
			if err != nil {
				return err
			}
			mu.Lock()
			if s != wantSum || mn != wantMin || mx != wantMax {
				bad = true
			}
			mu.Unlock()
			return nil
		})
		return err == nil && !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesComposeWithCheckpoints(t *testing.T) {
	// A program that uses collectives across checkpointed supersteps must
	// still recover correctly: verify superstep counting stays aligned.
	rec := &checkpointRecorder{}
	r, _ := NewRuntime(3, WithCheckpoint(1, rec))
	err := r.Run(func(p *Proc) error {
		p.SetState(func() []byte {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(p.Superstep()))
			return b[:]
		})
		for i := 0; i < 3; i++ {
			if _, err := p.AllReduceFloat64(1, Sum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.stats().Checkpoints; got != 3 {
		t.Fatalf("checkpoints = %d, want 3 (one per collective superstep)", got)
	}
}

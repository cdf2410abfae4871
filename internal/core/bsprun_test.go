package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"integrade/internal/bsp"
	"integrade/internal/resource"
)

func bspGrid(t *testing.T, nodes int, mips float64) (*Grid, *Cluster) {
	t.Helper()
	g := NewGrid(WithSeed(21))
	t.Cleanup(g.Stop)
	c, err := g.AddCluster("hpc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNodes(DedicatedNodes(nodes, mips)); err != nil {
		t.Fatal(err)
	}
	return g, c
}

func TestRunBSPComputesAndReleases(t *testing.T) {
	g, c := bspGrid(t, 4, 1000)
	var mu sync.Mutex
	sums := map[int]float64{}
	err := g.RunBSP(BSPJob{
		Name:  "allreduce",
		Procs: 4,
		Alloc: resource.Vector{MIPS: 800, RAMMB: 128},
	}, func(p *bsp.Proc) error {
		s, err := p.AllReduceFloat64(float64(p.PID()+1), bsp.Sum)
		if err != nil {
			return err
		}
		mu.Lock()
		sums[p.PID()] = s
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if sums[pid] != 10 {
			t.Fatalf("pid %d sum = %v, want 10", pid, sums[pid])
		}
	}
	// The gang is released: every node ledger is fully free again.
	now := g.Now()
	for _, n := range c.Nodes() {
		if len(n.RunningTasks()) != 0 {
			t.Fatalf("node %s still holds placeholder tasks", n.ID())
		}
		if free := n.Ledger().Free(now); free != n.Ledger().Capacity() {
			t.Fatalf("node %s not released: free %v", n.ID(), free)
		}
	}
	// Successful completion drops the job's checkpoint.
	if _, err := g.store.Latest("allreduce"); err == nil {
		t.Fatal("checkpoint not dropped after success")
	}
}

func TestRunBSPHoldsRealCapacity(t *testing.T) {
	g, _ := bspGrid(t, 2, 1000)
	// While the program runs, the gang genuinely occupies the nodes: a
	// concurrent placement check from inside the program must see no free
	// capacity for another 2-proc 800-MIPS gang.
	err := g.RunBSP(BSPJob{
		Name:  "holder",
		Procs: 2,
		Alloc: resource.Vector{MIPS: 800, RAMMB: 128},
	}, func(p *bsp.Proc) error {
		if p.PID() == 0 {
			c, _ := g.Cluster("hpc")
			for _, n := range c.Nodes() {
				free := n.Ledger().Free(g.Now())
				if free.MIPS >= 800 {
					return errors.New("node not actually held during RunBSP")
				}
			}
		}
		return p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBSPRecoversFromProgramFailure(t *testing.T) {
	g, _ := bspGrid(t, 4, 1000)
	var failed atomic.Bool
	const steps = 6
	err := g.RunBSP(BSPJob{
		Name:            "crashy",
		Procs:           4,
		Alloc:           resource.Vector{MIPS: 500, RAMMB: 64},
		CheckpointEvery: 2,
		MaxRestarts:     1,
	}, func(p *bsp.Proc) error {
		var sum uint64
		if st := p.Restored(); st != nil {
			sum = binary.BigEndian.Uint64(st)
		}
		p.SetState(func() []byte {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], sum)
			return b[:]
		})
		for p.Superstep() < steps {
			if p.PID() == 1 && p.Superstep() == 5 && !failed.Load() {
				failed.Store(true)
				return errors.New("injected eviction")
			}
			sum += uint64(p.Superstep() + 1)
			if err := p.Sync(); err != nil {
				return err
			}
		}
		want := uint64(steps * (steps + 1) / 2)
		if sum != want {
			return errors.New("wrong sum after recovery")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed.Load() {
		t.Fatal("failure injection never fired")
	}
}

func TestRunBSPFailsWithoutCapacity(t *testing.T) {
	g, _ := bspGrid(t, 2, 1000)
	err := g.RunBSP(BSPJob{
		Name:  "too-big",
		Procs: 8,
		Alloc: resource.Vector{MIPS: 800, RAMMB: 128},
	}, func(p *bsp.Proc) error { return nil })
	if err == nil {
		t.Fatal("oversized gang accepted")
	}
}

func TestRunBSPValidation(t *testing.T) {
	g, _ := bspGrid(t, 1, 1000)
	if err := g.RunBSP(BSPJob{Procs: 1}, func(*bsp.Proc) error { return nil }); err == nil {
		t.Fatal("nameless job accepted")
	}
	if err := g.RunBSP(BSPJob{Name: "x", Procs: 0}, func(*bsp.Proc) error { return nil }); err == nil {
		t.Fatal("zero-proc job accepted")
	}
}

func TestRunBSPExhaustsRestarts(t *testing.T) {
	g, _ := bspGrid(t, 1, 1000)
	calls := 0
	err := g.RunBSP(BSPJob{
		Name:        "hopeless",
		Procs:       1,
		Alloc:       resource.Vector{MIPS: 100, RAMMB: 16},
		MaxRestarts: 2,
	}, func(p *bsp.Proc) error {
		calls++
		return errors.New("always fails")
	})
	if err == nil {
		t.Fatal("hopeless job succeeded")
	}
	if calls != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 restarts)", calls)
	}
}

// Package checkpoint implements machine- and operating-system-independent
// checkpointing for InteGrade applications — the paper's mechanism for
// ensuring "that application execution evolves even in a dynamic environment
// in which nodes can turn from idle to busy without further notice" and for
// "migration of computation across grid nodes".
//
// A snapshot holds each process's state as the bytes the program serialized
// it to, never a raw memory image, so a snapshot taken on one architecture
// restores on any other. The Store keeps the latest snapshot per
// application; Resume re-runs a BSP program from it.
package checkpoint

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"integrade/internal/bsp"
)

// ErrNoSnapshot indicates no checkpoint exists for an application.
var ErrNoSnapshot = errors.New("checkpoint: no snapshot")

// Snapshot is one application-wide checkpoint: the portable state of every
// process at a superstep barrier.
type Snapshot struct {
	AppID     string
	Superstep int
	States    [][]byte
	TakenAt   time.Time
}

// Bytes returns the total payload size.
func (s Snapshot) Bytes() int {
	n := 0
	for _, st := range s.States {
		n += len(st)
	}
	return n
}

// Store holds the latest snapshot per application. It is safe for
// concurrent use.
type Store struct {
	now func() time.Time

	// mu guards snaps.
	//
	//lint:guards snaps
	mu    sync.Mutex
	snaps map[string]Snapshot
}

// NewStore returns a Store stamping snapshots with now (pass the clock's
// Now).
func NewStore(now func() time.Time) *Store {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	return &Store{now: now, snaps: make(map[string]Snapshot)}
}

// Save stores (replaces) the snapshot for an application.
func (st *Store) Save(appID string, superstep int, states [][]byte) error {
	if appID == "" {
		return errors.New("checkpoint: empty app ID")
	}
	cp := Snapshot{
		AppID:     appID,
		Superstep: superstep,
		States:    make([][]byte, len(states)),
		TakenAt:   st.now(),
	}
	for i, s := range states {
		cp.States[i] = append([]byte(nil), s...)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.snaps[appID] = cp
	return nil
}

// Latest returns the newest snapshot for an application.
func (st *Store) Latest(appID string) (Snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cp, ok := st.snaps[appID]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w for %q", ErrNoSnapshot, appID)
	}
	return cp, nil
}

// Drop removes an application's snapshot (after successful completion).
func (st *Store) Drop(appID string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.snaps, appID)
}

// Apps lists applications with snapshots, sorted.
func (st *Store) Apps() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.snaps))
	for id := range st.snaps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Sink adapts the store to bsp.CheckpointSink for one application.
func (st *Store) Sink(appID string) bsp.CheckpointSink {
	return sinkFunc(func(superstep int, states [][]byte) error {
		return st.Save(appID, superstep, states)
	})
}

type sinkFunc func(int, [][]byte) error

func (f sinkFunc) Save(superstep int, states [][]byte) error {
	return f(superstep, states)
}

// Resume runs a BSP program with checkpointing every `every` supersteps
// into store, restoring from the application's latest snapshot when one
// exists (rollback recovery / migration restart). On success the snapshot
// is dropped.
func Resume(store *Store, appID string, nprocs, every int, program bsp.Program) error {
	return ResumeRuntime(store, appID, nprocs, every, program, nil)
}

// ResumeRuntime is Resume with a hook: onRuntime (if non-nil) receives the
// configured runtime before it starts, so callers can arm external controls
// — notably Runtime.Abort from a failure detector — against the active run.
// The hook is called again with nil once the run ends.
func ResumeRuntime(store *Store, appID string, nprocs, every int, program bsp.Program, onRuntime func(*bsp.Runtime)) error {
	opts := []bsp.Option{bsp.WithCheckpoint(every, store.Sink(appID))}
	if cp, err := store.Latest(appID); err == nil {
		if len(cp.States) != nprocs {
			return fmt.Errorf("checkpoint: snapshot for %d procs, runtime has %d", len(cp.States), nprocs)
		}
		opts = append(opts, bsp.WithRestore(cp.Superstep, cp.States))
	}
	rt, err := bsp.NewRuntime(nprocs, opts...)
	if err != nil {
		return err
	}
	if onRuntime != nil {
		onRuntime(rt)
		defer onRuntime(nil)
	}
	if err := rt.Run(program); err != nil {
		return err
	}
	store.Drop(appID)
	return nil
}

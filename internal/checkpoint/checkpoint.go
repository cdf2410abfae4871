// Package checkpoint implements machine- and operating-system-independent
// checkpointing for InteGrade applications — the paper's mechanism for
// ensuring "that application execution evolves even in a dynamic environment
// in which nodes can turn from idle to busy without further notice" and for
// "migration of computation across grid nodes".
//
// Snapshots are explicitly serialized (big-endian, length-prefixed — the
// ORB wire encoding), never raw memory images, so a snapshot taken on one
// architecture restores on any other. The Store keeps the latest snapshot
// per application; Resume re-runs a BSP program from it.
package checkpoint

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"integrade/internal/bsp"
	"integrade/internal/orb"
)

// ErrNoSnapshot indicates no checkpoint exists for an application.
var ErrNoSnapshot = errors.New("checkpoint: no snapshot")

// Storage is what Resume needs from a snapshot store. Both the in-memory
// Store and the durable FileStore satisfy it, so a BSP run can resume from
// either — including under a different GRM than the one it started under.
type Storage interface {
	Save(appID string, superstep int, states [][]byte) error
	Latest(appID string) (Snapshot, error)
	Drop(appID string)
	Sink(appID string) bsp.CheckpointSink
}

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

// Encode writes the snapshot in the portable wire format.
func (s Snapshot) Encode(e *orb.Encoder) {
	e.PutString(s.AppID)
	e.PutInt(s.Superstep)
	e.PutTime(s.TakenAt)
	e.PutU32(uint32(len(s.States)))
	for _, st := range s.States {
		e.PutBytes(st)
	}
}

// DecodeSnapshot reads a snapshot written by Encode.
func DecodeSnapshot(d *orb.Decoder) (Snapshot, error) {
	s := Snapshot{
		AppID:     d.String(),
		Superstep: d.Int(),
		TakenAt:   d.Time(),
	}
	n := d.Count(4)
	if err := d.Err(); err != nil {
		return Snapshot{}, err
	}
	s.States = make([][]byte, n)
	for i := range s.States {
		s.States[i] = d.Bytes()
	}
	return s, d.Err()
}

// Store holds the latest snapshot per application. It is safe for
// concurrent use.
type Store struct {
	now func() time.Time

	// mu guards snaps and saves.
	//
	//lint:guards snaps,saves
	mu    sync.Mutex
	snaps map[string]Snapshot
	saves int
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
	st.saves++
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

// Saves returns the total number of snapshots taken.
func (st *Store) Saves() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.saves
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
func Resume(store Storage, appID string, nprocs, every int, program bsp.Program) error {
	return ResumeRuntime(store, appID, nprocs, every, program, nil)
}

// ResumeRuntime is Resume with a hook: onRuntime (if non-nil) receives the
// configured runtime before it starts, so callers can arm external controls
// — notably Runtime.Abort from a failure detector — against the active run.
// The hook is called again with nil once the run ends.
func ResumeRuntime(store Storage, appID string, nprocs, every int, program bsp.Program, onRuntime func(*bsp.Runtime)) error {
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

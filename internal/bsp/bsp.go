// Package bsp implements InteGrade's parallel programming model: Valiant's
// Bulk-Synchronous Parallel model [Val90], which the paper adopts because
// it "imposes frequent synchronizations among application nodes" — the
// natural points for portable checkpoints.
//
// The runtime follows BSPlib conventions:
//
//   - a fixed set of processes executes the same Program;
//   - computation proceeds in supersteps separated by Sync barriers;
//   - BSMP messages sent during superstep s are deliverable (Move) in
//     superstep s+1;
//   - DRMA Put/Get against named registers take effect at the barrier;
//   - at configurable superstep boundaries, every process contributes a
//     portable state snapshot which the runtime hands to a checkpoint sink,
//     enabling rollback recovery and migration.
package bsp

import (
	"errors"
	"fmt"
	"sync"
)

// Errors surfaced by the runtime.
var (
	// ErrAborted is returned from Sync on the surviving processes after any
	// process fails.
	ErrAborted = errors.New("bsp: computation aborted")
	// ErrNoRegister indicates a Put/Get against an unregistered name.
	ErrNoRegister = errors.New("bsp: no such register")
)

// Program is the SPMD body run by every process.
type Program func(p *Proc) error

// CheckpointSink receives superstep-boundary snapshots (one blob per
// process). Implementations must treat the blobs as opaque.
type CheckpointSink interface {
	Save(superstep int, states [][]byte) error
}

// Runtime executes BSP programs over in-process goroutines.
type Runtime struct {
	nprocs          int
	checkpointEvery int
	sink            CheckpointSink
	restoreStep     int
	restoreStates   [][]byte

	// statsMu guards lastStats and active.
	statsMu   sync.Mutex
	lastStats CostStats
	active    *world
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithCheckpoint snapshots every n supersteps into sink.
func WithCheckpoint(n int, sink CheckpointSink) Option {
	return func(r *Runtime) {
		r.checkpointEvery = n
		r.sink = sink
	}
}

// WithRestore starts execution from a saved checkpoint: programs observe
// the given superstep number and their state blob via Proc.Restored.
func WithRestore(superstep int, states [][]byte) Option {
	return func(r *Runtime) {
		r.restoreStep = superstep
		r.restoreStates = states
	}
}

// NewRuntime returns a runtime for nprocs processes.
func NewRuntime(nprocs int, opts ...Option) (*Runtime, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("bsp: nprocs = %d", nprocs)
	}
	r := &Runtime{nprocs: nprocs}
	for _, opt := range opts {
		opt(r)
	}
	if r.restoreStates != nil && len(r.restoreStates) != nprocs {
		return nil, fmt.Errorf("bsp: restore states for %d procs, want %d", len(r.restoreStates), nprocs)
	}
	return r, nil
}

// Run executes the program to completion and returns the first process
// error, if any. It blocks until every process goroutine has exited.
func (r *Runtime) Run(program Program) error {
	world := newWorld(r)
	r.statsMu.Lock()
	r.active = world
	r.statsMu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, r.nprocs)
	for pid := 0; pid < r.nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p := world.procs[pid]
			defer func() {
				if rec := recover(); rec != nil {
					errs[pid] = fmt.Errorf("bsp: process %d panicked: %v", pid, rec)
				}
				world.leave(errs[pid])
			}()
			errs[pid] = program(p)
		}(pid)
	}
	wg.Wait()
	r.statsMu.Lock()
	r.active = nil
	r.statsMu.Unlock()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
	}
	// Every process saw ErrAborted (or none erred): surface the abort cause
	// — set by the first failing process or by an external Abort.
	world.mu.Lock()
	abortErr := world.abortErr
	world.mu.Unlock()
	if abortErr != nil {
		return abortErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Abort terminates the in-flight run, if any: every process observes
// ErrAborted at its next Sync (processes already blocked at the barrier wake
// immediately) and Run returns an error wrapping ErrAborted and cause. The
// grid's failure detector uses this when a gang member's node dies —
// survivors parked at a barrier can never proceed, so the whole gang unwinds
// and restarts from its last checkpoint. Safe to call from any goroutine;
// a no-op when no run is active or the run already aborted.
func (r *Runtime) Abort(cause error) {
	r.statsMu.Lock()
	w := r.active
	r.statsMu.Unlock()
	if w == nil {
		return
	}
	err := ErrAborted
	if cause != nil {
		err = fmt.Errorf("%w: %v", ErrAborted, cause)
	}
	w.mu.Lock()
	if !w.aborted {
		w.aborted = true
		w.abortErr = err
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// requestCheckpoint forces a snapshot at the next superstep barrier,
// regardless of the periodic cadence. The graceful-drain path uses it when a
// node predicts an owner arrival: one last checkpoint before the departure
// bounds the gang's rollback to the current superstep instead of the last
// periodic boundary. A no-op when no run is active or the runtime has no
// checkpoint sink.
func (r *Runtime) requestCheckpoint() {
	r.statsMu.Lock()
	w := r.active
	r.statsMu.Unlock()
	if w == nil || r.sink == nil {
		return
	}
	w.mu.Lock()
	w.forceCkpt = true
	w.mu.Unlock()
}

// world is the shared state of one run.
type world struct {
	runtime *Runtime
	procs   []*Proc

	// mu guards arrived, leavers, gen, aborted, abortErr, superstep,
	// forceCkpt and stats; cond (which wraps mu) signals barrier generation
	// changes.
	// leave() folds final run stats into the runtime under both locks, so
	// w.mu nests outside the runtime's statsMu.
	//lint:lockorder bsp.world.mu<bsp.Runtime.statsMu
	mu        sync.Mutex
	cond      *sync.Cond
	arrived   int
	leavers   int
	gen       int
	aborted   bool
	abortErr  error
	superstep int
	forceCkpt bool

	stats CostStats
}

// CostStats accumulates BSP cost-model observables.
type CostStats struct {
	Supersteps   int
	MessagesSent int
	BytesSent    int64
	// MaxH is the largest h-relation observed (max over supersteps of the
	// max per-process message count sent or received in that superstep).
	MaxH int
	// Checkpoints is the number of snapshots taken.
	Checkpoints int
}

// stats returns the cost statistics of the last Run.
func (r *Runtime) stats() CostStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.lastStats
}

func newWorld(r *Runtime) *world {
	w := &world{runtime: r, superstep: r.restoreStep}
	w.cond = sync.NewCond(&w.mu)
	w.procs = make([]*Proc, r.nprocs)
	for pid := range w.procs {
		p := &Proc{
			world:     w,
			pid:       pid,
			nprocs:    r.nprocs,
			registers: make(map[string][]byte),
			inbox:     nil,
		}
		if r.restoreStates != nil {
			p.restored = r.restoreStates[pid]
		}
		w.procs[pid] = p
	}
	return w
}

// leave records a process exiting (normally or not); an error aborts the
// world so blocked peers wake up.
func (w *world) leave(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.leavers++
	if err != nil && !w.aborted {
		w.aborted = true
		w.abortErr = err
	}
	// If peers are blocked at a barrier that can no longer fill (this
	// process will never arrive), the program is malformed: abort them
	// rather than deadlock.
	if !w.aborted && w.arrived > 0 && w.arrived+w.leavers >= len(w.procs) {
		w.aborted = true
		w.abortErr = fmt.Errorf("%w: process exited while peers were at a barrier", ErrAborted)
	}
	w.cond.Broadcast()
	w.runtime.statsMu.Lock()
	w.runtime.lastStats = w.stats
	w.runtime.statsMu.Unlock()
}

// barrier blocks until all live processes arrive, then the last arrival
// performs the exchange. Returns the error processes should observe.
func (w *world) barrier(p *Proc) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return ErrAborted
	}
	w.arrived++
	myGen := w.gen
	if w.arrived+w.leavers == len(w.procs) {
		if w.leavers > 0 {
			// A peer exited before this barrier: deadlock averted, abort.
			w.aborted = true
			if w.abortErr == nil {
				w.abortErr = fmt.Errorf("%w: %d process(es) exited before Sync", ErrAborted, w.leavers)
			}
			w.arrived = 0
			w.cond.Broadcast()
			return ErrAborted
		}
		// Last arrival: perform the superstep exchange.
		// exchangeLocked releases w.mu around the checkpoint callbacks and
		// re-acquires it before returning; the flow-insensitive summary sees
		// only the re-acquisition, so this is not a recursive lock.
		//lint:allow locks exchangeLocked drops w.mu before re-locking it
		if err := w.exchangeLocked(); err != nil {
			w.aborted = true
			w.abortErr = err
			w.arrived = 0
			w.cond.Broadcast()
			return err
		}
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
		return nil
	}
	for w.gen == myGen && !w.aborted {
		w.cond.Wait()
	}
	if w.aborted {
		return ErrAborted
	}
	return nil
}

// exchangeLocked delivers messages, applies puts, serves gets and takes
// checkpoints. Runs with w.mu held by the last barrier arrival.
func (w *world) exchangeLocked() error {
	maxH := 0
	// Message delivery: outboxes become inboxes.
	recv := make([]int, len(w.procs))
	for _, p := range w.procs {
		sent := len(p.outbox)
		if sent > maxH {
			maxH = sent
		}
		for _, m := range p.outbox {
			dst := w.procs[m.to]
			dst.pendingInbox = append(dst.pendingInbox, m.payload)
			recv[m.to]++
			w.stats.MessagesSent++
			w.stats.BytesSent += int64(len(m.payload))
		}
		p.outbox = nil
	}
	for _, n := range recv {
		if n > maxH {
			maxH = n
		}
	}
	if maxH > w.stats.MaxH {
		w.stats.MaxH = maxH
	}
	for _, p := range w.procs {
		p.inbox = p.pendingInbox
		p.pendingInbox = nil
	}
	// DRMA puts.
	for _, p := range w.procs {
		for _, put := range p.puts {
			dst := w.procs[put.pid]
			if _, ok := dst.registers[put.reg]; !ok {
				return fmt.Errorf("%w: put to %q on process %d", ErrNoRegister, put.reg, put.pid)
			}
			dst.registers[put.reg] = append([]byte(nil), put.payload...)
		}
		p.puts = nil
	}
	// DRMA gets (read value as of this barrier).
	for _, p := range w.procs {
		for _, get := range p.gets {
			src := w.procs[get.pid]
			data, ok := src.registers[get.reg]
			if !ok {
				return fmt.Errorf("%w: get of %q on process %d", ErrNoRegister, get.reg, get.pid)
			}
			*get.dst = append([]byte(nil), data...)
		}
		p.gets = nil
	}
	w.superstep++
	w.stats.Supersteps++
	// Checkpoint at the boundary. State providers are user callbacks and
	// may call Proc methods (Superstep, Local, …) that take w.mu, so run
	// them with the lock released. This is safe: every other process is
	// parked inside this barrier (sync.Cond.Wait only returns after our
	// later Broadcast), so nothing else can touch world state meanwhile.
	r := w.runtime
	due := r.checkpointEvery > 0 && w.superstep%r.checkpointEvery == 0
	if r.sink != nil && (due || w.forceCkpt) {
		w.forceCkpt = false
		superstep := w.superstep
		w.mu.Unlock()
		states := make([][]byte, len(w.procs))
		for i, p := range w.procs {
			if p.stateFn != nil {
				states[i] = p.stateFn()
			}
		}
		err := r.sink.Save(superstep, states)
		w.mu.Lock()
		if err != nil {
			return fmt.Errorf("bsp: checkpoint at superstep %d: %w", superstep, err)
		}
		w.stats.Checkpoints++
	}
	return nil
}

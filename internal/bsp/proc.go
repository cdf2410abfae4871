package bsp

import "fmt"

// message is one BSMP message in flight.
type message struct {
	to      int
	payload []byte
}

type putOp struct {
	pid     int
	reg     string
	payload []byte
}

type getOp struct {
	pid int
	reg string
	dst *[]byte
}

// Proc is one BSP process's handle, valid only inside the Program body and
// only on its own goroutine.
type Proc struct {
	world  *world
	pid    int
	nprocs int

	// Superstep-local buffers, exchanged at barriers.
	outbox       []message
	inbox        [][]byte
	pendingInbox [][]byte
	puts         []putOp
	gets         []getOp

	registers map[string][]byte
	stateFn   func() []byte
	restored  []byte
}

// PID returns this process's rank in [0, NProcs).
func (p *Proc) PID() int { return p.pid }

// NProcs returns the number of processes.
func (p *Proc) NProcs() int { return p.nprocs }

// Superstep returns the current superstep number (starts at the restore
// point, 0 for fresh runs).
func (p *Proc) Superstep() int {
	p.world.mu.Lock()
	defer p.world.mu.Unlock()
	return p.world.superstep
}

// Restored returns this process's checkpointed state when the runtime was
// built with WithRestore, or nil on a fresh start.
func (p *Proc) Restored() []byte { return p.restored }

// SetState registers the provider called at checkpoint boundaries to
// capture this process's portable state.
func (p *Proc) SetState(fn func() []byte) { p.stateFn = fn }

// Send enqueues a BSMP message for delivery after the next Sync.
func (p *Proc) Send(to int, payload []byte) error {
	if to < 0 || to >= p.nprocs {
		return fmt.Errorf("bsp: send to process %d of %d", to, p.nprocs)
	}
	msg := message{to: to, payload: append([]byte(nil), payload...)}
	p.outbox = append(p.outbox, msg)
	return nil
}

// Move dequeues the next message delivered at the last Sync; ok is false
// when the inbox is empty.
func (p *Proc) Move() ([]byte, bool) {
	if len(p.inbox) == 0 {
		return nil, false
	}
	msg := p.inbox[0]
	p.inbox = p.inbox[1:]
	return msg, true
}

// Register creates (or replaces) a DRMA register on this process. Remote
// processes address it by name.
func (p *Proc) Register(name string, data []byte) {
	p.registers[name] = append([]byte(nil), data...)
}

// Local reads this process's own register.
func (p *Proc) Local(name string) ([]byte, error) {
	data, ok := p.registers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q on process %d", ErrNoRegister, name, p.pid)
	}
	return append([]byte(nil), data...), nil
}

// Put schedules a remote write to pid's register, applied at the next Sync.
func (p *Proc) Put(pid int, reg string, payload []byte) error {
	if pid < 0 || pid >= p.nprocs {
		return fmt.Errorf("bsp: put to process %d of %d", pid, p.nprocs)
	}
	p.puts = append(p.puts, putOp{pid: pid, reg: reg, payload: append([]byte(nil), payload...)})
	return nil
}

// Get schedules a remote read of pid's register; *dst holds the value (as
// of the barrier) after the next Sync returns.
func (p *Proc) Get(pid int, reg string, dst *[]byte) error {
	if pid < 0 || pid >= p.nprocs {
		return fmt.Errorf("bsp: get from process %d of %d", pid, p.nprocs)
	}
	p.gets = append(p.gets, getOp{pid: pid, reg: reg, dst: dst})
	return nil
}

// Sync is the superstep barrier: it blocks until every process arrives,
// then messages are delivered, puts applied, gets served, and (on
// checkpoint boundaries) states snapshotted.
func (p *Proc) Sync() error {
	return p.world.barrier(p)
}

// Package chaos is InteGrade's deterministic fault-injection engine.
//
// An Engine sits on the shared orb.Interceptor hook, so the same fault
// schedule perturbs in-process loopback runs and real TCP runs through one
// code path. All randomness comes from a forked sim.RNG stream and all
// timing from a sim.Clock, so a (seed, schedule) pair reproduces the exact
// same fault sequence run after run — the property the recovery experiments
// (bench E9) and the chaos test suite rely on.
//
// Faults compose from three primitives:
//
//   - Message faults (MessageFault): probabilistic drop, delay and
//     duplication of invocations selected by a Match pattern. Injected at
//     delivery time, never by blocking the caller: a delayed message
//     surfaces to the sender as a timeout and is re-delivered later via
//     Clock.AfterFunc; a duplicate is delivered immediately and once more
//     after DuplicateAfter, with the second reply discarded.
//   - Partitions (Isolate/Heal): endpoint isolation sets. Any invocation
//     targeting an isolated address fails with a transport error, which
//     approximates a network partition from the caller's viewpoint.
//   - Directional partitions (IsolateOutbound/IsolateDirected): one-way
//     drops keyed on the sending endpoint. The shared interceptor hook only
//     sees the target, so directional rules are enforced at the sender via
//     SourceInvoker (or Engine.CheckSend), which components wrap around
//     their ORB handle. Leader-election pathologies — a node that can send
//     votes yet not receive heartbeats — need exactly this asymmetry.
//   - Node crashes (RegisterNode/ScheduleCrash): a crash invokes the
//     registered Crash hook (the host decides what "crash" means — in the
//     simulated grid it silences the LRM and isolates the node's endpoint)
//     and, if an outage duration is given, the Restart hook later.
//
// Schedules are built by composing At, FaultWindow, SchedulePartition and
// ScheduleCrash, all of which run relative to the engine clock's current
// time; on a sim.VirtualClock the whole schedule executes deterministically
// as the driving test advances time.
package chaos

import (
	"slices"
	"sort"
	"sync"
	"time"

	"integrade/internal/orb"
	"integrade/internal/sim"
)

// Match selects invocations by target address, object key and operation.
// Empty fields are wildcards; a zero Match matches every invocation.
type Match struct {
	Addr string // endpoint address ("c1/n3", "mgr-c1", "host:port")
	Key  string // object key within the adapter
	Op   string // operation name
}

// Covers reports whether the pattern selects the given invocation.
func (m Match) Covers(target orb.Endpoint, key, op string) bool {
	if m.Addr != "" && m.Addr != target.Addr {
		return false
	}
	if m.Key != "" && m.Key != key {
		return false
	}
	if m.Op != "" && m.Op != op {
		return false
	}
	return true
}

// MessageFault perturbs matching invocations. Probabilities are evaluated
// independently in Drop, Delay, Duplicate order; the first that fires wins.
type MessageFault struct {
	Match Match

	Drop float64 // probability the message is lost

	Delay   float64       // probability the message is delayed past its deadline
	DelayBy time.Duration // late-delivery lag (default 30s)

	Duplicate      float64       // probability the message is delivered twice
	DuplicateAfter time.Duration // lag before the second delivery (default 1s)
}

// NodeHooks are the host-provided crash and restart actions for one node.
// Hooks run outside engine locks and must be safe to call from clock events.
type NodeHooks struct {
	Crash   func()
	Restart func()
}

// Stats counts injected faults; all fields are cumulative.
type Stats struct {
	Seen            int // invocations inspected
	Dropped         int // messages lost to MessageFault.Drop
	Delayed         int // messages delayed past their deadline
	Duplicated      int // messages delivered twice
	PartitionDrops  int // messages refused because the target was isolated
	DirectionalDrop int // messages refused by an outbound/directed rule
	Crashes         int // node crash hooks fired
	Restarts        int // node restart hooks fired
}

// Engine injects faults into ORB traffic and schedules node-level failures.
// It implements orb.Interceptor; install it with ORB.SetInterceptor. Safe
// for concurrent use.
type Engine struct {
	clock sim.Clock

	// mu guards rng, nextFaultID, faults, isolated, outbound, directed,
	// nodes and stats. It is only ever held to make decisions and snapshot
	// state — never across a delivery, a hook, or any other call that could
	// block.
	//
	//lint:guards rng,nextFaultID,faults,isolated,outbound,directed,nodes,stats
	mu          sync.Mutex
	rng         *sim.RNG
	nextFaultID int
	faults      []activeFault // in activation order
	isolated    map[string]bool
	// outbound drops every message originating at an address; directed
	// drops only the (from, to) pairs it holds. Both are sender-side rules,
	// evaluated by CheckSend, not by the target-only Intercept hook.
	outbound map[string]bool
	directed map[string]map[string]bool
	nodes    map[string]NodeHooks
	stats    Stats
}

var _ orb.Interceptor = (*Engine)(nil)

// activeFault is an active message fault and the id AddFault gave it.
type activeFault struct {
	id int
	MessageFault
}

// NewEngine returns an Engine driven by clock, sampling from its own fork
// of rng (the parent stream is not consumed further).
func NewEngine(clock sim.Clock, rng *sim.RNG) *Engine {
	return &Engine{
		clock:    clock,
		rng:      rng.Fork("chaos"),
		isolated: make(map[string]bool),
		outbound: make(map[string]bool),
		directed: make(map[string]map[string]bool),
		nodes:    make(map[string]NodeHooks),
	}
}

// AddFault activates a message fault and returns its id for RemoveFault.
func (e *Engine) AddFault(f MessageFault) int {
	if f.DelayBy <= 0 {
		f.DelayBy = 30 * time.Second
	}
	if f.DuplicateAfter <= 0 {
		f.DuplicateAfter = time.Second
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextFaultID++
	e.faults = append(e.faults, activeFault{e.nextFaultID, f})
	return e.nextFaultID
}

// RemoveFault deactivates the fault with the given id.
func (e *Engine) RemoveFault(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = slices.DeleteFunc(e.faults, func(f activeFault) bool { return f.id == id })
}

// ClearFaults deactivates every message fault (partitions are unaffected).
func (e *Engine) ClearFaults() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = e.faults[:0]
}

// Isolate adds addresses to the partition set: invocations targeting them
// fail with a transport error until Heal.
func (e *Engine) Isolate(addrs ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range addrs {
		e.isolated[a] = true
	}
}

// Heal removes addresses from the partition set.
func (e *Engine) Heal(addrs ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range addrs {
		delete(e.isolated, a)
	}
}

// HealAll clears the partition set along with every directional rule.
func (e *Engine) HealAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.isolated = make(map[string]bool)
	e.outbound = make(map[string]bool)
	e.directed = make(map[string]map[string]bool)
}

// Isolated reports whether addr is currently partitioned away.
func (e *Engine) Isolated(addr string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isolated[addr]
}

// IsolateOutbound drops every message originating at the given addresses
// until HealOutbound. Inbound traffic to them still flows — the asymmetric
// half of a one-way partition.
func (e *Engine) IsolateOutbound(addrs ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range addrs {
		e.outbound[a] = true
	}
}

// HealOutbound removes addresses from the outbound-drop set.
func (e *Engine) HealOutbound(addrs ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range addrs {
		delete(e.outbound, a)
	}
}

// IsolateDirected drops messages from `from` to `to` only; the reverse
// direction and every other pair are untouched.
func (e *Engine) IsolateDirected(from, to string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	set := e.directed[from]
	if set == nil {
		set = make(map[string]bool)
		e.directed[from] = set
	}
	set[to] = true
}

// HealDirected removes the (from, to) drop rule.
func (e *Engine) HealDirected(from, to string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if set := e.directed[from]; set != nil {
		delete(set, to)
		if len(set) == 0 {
			delete(e.directed, from)
		}
	}
}

// OutboundBlocked reports whether a message from `from` to `to` would be
// refused by an outbound or directed rule.
func (e *Engine) OutboundBlocked(from, to string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.outbound[from] {
		return true
	}
	set := e.directed[from]
	return set != nil && set[to]
}

// CheckSend is the sender-side gate for directional rules: a component that
// knows its own endpoint address calls it (directly or via SourceInvoker)
// before invoking. It returns a transport error — and counts the drop — when
// an outbound or directed rule blocks the (source, target) pair, and nil
// otherwise. Symmetric partitions are still handled by Intercept; CheckSend
// only covers the directions Intercept cannot see.
func (e *Engine) CheckSend(source string, target orb.Endpoint, key, op string) error {
	e.mu.Lock()
	blocked := e.outbound[source]
	if !blocked {
		if set := e.directed[source]; set != nil {
			blocked = set[target.Addr]
		}
	}
	if blocked {
		e.stats.DirectionalDrop++
	}
	e.mu.Unlock()
	if blocked {
		return orb.Errorf(orb.CodeTransport, "chaos: message %s -> %s/%s.%s dropped (one-way partition)", source, target.Addr, key, op)
	}
	return nil
}

// SchedulePartitionDirected drops the cross product from×to after `from`
// elapses and heals the rules after `until` (both relative to now). A zero
// or negative `until` leaves the rules in place forever.
func (e *Engine) SchedulePartitionDirected(fromAddrs, toAddrs []string, from, until time.Duration) {
	e.At(from, func() {
		for _, f := range fromAddrs {
			for _, t := range toAddrs {
				e.IsolateDirected(f, t)
			}
		}
		if until > from {
			e.At(until-from, func() {
				for _, f := range fromAddrs {
					for _, t := range toAddrs {
						e.HealDirected(f, t)
					}
				}
			})
		}
	})
}

// sourceInvoker stamps a fixed source address onto every invocation so the
// engine can apply directional rules the target-only interceptor cannot.
type sourceInvoker struct {
	e      *Engine
	source string
	next   orb.Invoker
}

// SourceInvoker wraps next so every Invoke first passes CheckSend with the
// given source address. Components that participate in one-way partitions
// (election peers, the GRM replicator) invoke through this wrapper.
func (e *Engine) SourceInvoker(source string, next orb.Invoker) orb.Invoker {
	return &sourceInvoker{e: e, source: source, next: next}
}

func (s *sourceInvoker) Invoke(ref orb.ObjectRef, op string, arg []byte) ([]byte, error) {
	if err := s.e.CheckSend(s.source, ref.Endpoint, ref.Key, op); err != nil {
		return nil, err
	}
	return s.next.Invoke(ref, op, arg)
}

// RegisterNode associates crash/restart hooks with a node id so schedules
// can crash it by name.
func (e *Engine) RegisterNode(id string, hooks NodeHooks) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nodes[id] = hooks
}

// Nodes returns the registered node ids in sorted order.
func (e *Engine) Nodes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.nodes))
	for id := range e.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Stats returns a snapshot of the fault counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// At schedules fn to run once the engine clock has advanced by d.
func (e *Engine) At(d time.Duration, fn func()) {
	e.clock.AfterFunc(d, fn)
}

// FaultWindow activates f after `from` and deactivates it again after
// `until` (both relative to now). A zero or negative `until` leaves the
// fault active forever.
func (e *Engine) FaultWindow(f MessageFault, from, until time.Duration) {
	e.At(from, func() {
		id := e.AddFault(f)
		if until > from {
			e.At(until-from, func() { e.RemoveFault(id) })
		}
	})
}

// SchedulePartition isolates addrs after `from` and heals them after
// `until` (both relative to now). A zero or negative `until` leaves the
// partition in place forever.
func (e *Engine) SchedulePartition(addrs []string, from, until time.Duration) {
	e.At(from, func() {
		e.Isolate(addrs...)
		if until > from {
			e.At(until-from, func() { e.Heal(addrs...) })
		}
	})
}

// ScheduleCrash crashes the named node after `at`, restarting it `outage`
// later; a zero or negative outage means the node never comes back.
func (e *Engine) ScheduleCrash(nodeID string, at, outage time.Duration) {
	e.At(at, func() {
		e.crash(nodeID)
		if outage > 0 {
			e.At(outage, func() { e.restart(nodeID) })
		}
	})
}

// Flap is one down/up cycle of an intermittent node, relative to the moment
// the schedule is installed: the node crashes at Down and restarts at Up. An
// Up at or before Down means the node never comes back from this cycle.
type Flap struct {
	Down time.Duration
	Up   time.Duration
}

// ScheduleFlaps installs a deterministic up/down schedule for the named
// node — the first-class primitive behind intermittent-fleet experiments
// (bench E15) and the flap stress suites. Each cycle fires the node's crash
// hook at Down and its restart hook at Up; cycles may be derived from a
// seeded usage trace's busy windows so "owner at the keyboard" equals "node
// off the grid". The schedule runs relative to the engine clock's current
// time, so on a sim.VirtualClock the same (seed, schedule) pair reproduces
// the exact flap sequence every run.
func (e *Engine) ScheduleFlaps(nodeID string, flaps []Flap) {
	for _, f := range flaps {
		e.At(f.Down, func() { e.crash(nodeID) })
		if f.Up > f.Down {
			e.At(f.Up, func() { e.restart(nodeID) })
		}
	}
}

func (e *Engine) crash(nodeID string) {
	e.mu.Lock()
	hooks, ok := e.nodes[nodeID]
	if ok {
		e.stats.Crashes++
	}
	e.mu.Unlock()
	if ok && hooks.Crash != nil {
		hooks.Crash()
	}
}

func (e *Engine) restart(nodeID string) {
	e.mu.Lock()
	hooks, ok := e.nodes[nodeID]
	if ok {
		e.stats.Restarts++
	}
	e.mu.Unlock()
	if ok && hooks.Restart != nil {
		hooks.Restart()
	}
}

// verdict is the decision taken for one invocation, computed under lock and
// acted on after release.
type verdict int

const (
	actDeliver verdict = iota
	actPartition
	actDrop
	actDelay
	actDuplicate
)

// Intercept implements orb.Interceptor: it decides the fate of one
// invocation under the engine's fault state and performs the chosen action
// without ever blocking the caller.
func (e *Engine) Intercept(target orb.Endpoint, key, op string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
	e.mu.Lock()
	e.stats.Seen++
	act := actDeliver
	var lag time.Duration
	switch {
	case e.isolated[target.Addr]:
		act = actPartition
		e.stats.PartitionDrops++
	default:
		// First matching fault (in activation order) decides.
		for i := range e.faults {
			f := &e.faults[i]
			if !f.Match.Covers(target, key, op) {
				continue
			}
			switch {
			case f.Drop > 0 && e.rng.Bool(f.Drop):
				act, lag = actDrop, 0
				e.stats.Dropped++
			case f.Delay > 0 && e.rng.Bool(f.Delay):
				act, lag = actDelay, f.DelayBy
				e.stats.Delayed++
			case f.Duplicate > 0 && e.rng.Bool(f.Duplicate):
				act, lag = actDuplicate, f.DuplicateAfter
				e.stats.Duplicated++
			}
			break
		}
	}
	e.mu.Unlock()

	switch act {
	case actPartition:
		return nil, orb.Errorf(orb.CodeTransport, "chaos: %s unreachable (partitioned)", target.Addr)
	case actDrop:
		return nil, orb.Errorf(orb.CodeTransport, "chaos: message to %s/%s.%s dropped", target.Addr, key, op)
	case actDelay:
		// The message is not lost, merely late: deliver its side effects
		// when the lag elapses, while the sender sees a timeout now. Never
		// block — under a virtual clock, blocking here would deadlock the
		// event loop.
		e.clock.AfterFunc(lag, func() { _, _ = next() })
		return nil, orb.Errorf(orb.CodeTimeout, "chaos: message to %s/%s.%s delayed %v, past deadline", target.Addr, key, op, lag)
	case actDuplicate:
		reply, err := next()
		e.clock.AfterFunc(lag, func() { _, _ = next() })
		return reply, err
	default:
		return next()
	}
}

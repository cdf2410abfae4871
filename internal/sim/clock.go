// Package sim provides the deterministic simulation substrate used across
// the InteGrade library: a Clock abstraction over real and virtual time, a
// discrete-event scheduler, and seeded random-number helpers.
//
// Every InteGrade component takes a Clock so that the same protocol code runs
// against the wall clock in the cmd/ servers and against an event-driven
// virtual clock in tests and benchmarks, where weeks of simulated desktop
// usage elapse in milliseconds.
package sim

import (
	"sync"
	"time"
)

// Clock abstracts time for all InteGrade components.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc schedules f to run once d has elapsed and returns a handle
	// that can cancel it.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks the caller for d.
	Sleep(d time.Duration)
}

// Timer is a cancellable pending callback created by Clock.AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing.
	Stop() bool
}

// RealClock is a Clock backed by the operating-system clock.
type RealClock struct{}

var _ Clock = RealClock{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a deterministic discrete-event clock. Time only advances
// when RunUntil, Advance or Step is called; scheduled events fire in timestamp
// order (ties broken by scheduling order).
type VirtualClock struct {
	// mu guards now, queue and seq.
	mu    sync.Mutex
	now   time.Time
	queue eventQueue
	seq   uint64
}

var _ Clock = (*VirtualClock)(nil)

// Epoch is the default origin of virtual time: Monday 2026-01-05 00:00 UTC.
// Starting on a Monday makes weekly usage-pattern tests easy to read.
var Epoch = time.Date(2026, time.January, 5, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a VirtualClock starting at Epoch.
func NewVirtualClock() *VirtualClock { return NewVirtualClockAt(Epoch) }

// NewVirtualClockAt returns a VirtualClock starting at the given instant.
func NewVirtualClockAt(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that delivers the then-current time once d has
// elapsed, which takes the event loop advancing past it.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() {
		ch <- c.Now()
	})
	return ch
}

// AfterFunc implements Clock.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := &event{
		at:  c.now.Add(d),
		seq: c.seq,
		fn:  f,
	}
	c.seq++
	c.queue.push(ev)
	return &virtualTimer{clock: c, ev: ev}
}

// Sleep implements Clock. Sleeping on a virtual clock only returns once some
// other goroutine advances time past the deadline via Run/RunUntil/Step.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-c.After(d)
}

// Step executes the single earliest pending event, advancing time to it.
// It reports whether an event was executed.
func (c *VirtualClock) Step() bool {
	c.mu.Lock()
	ev := c.queue.pop()
	if ev == nil {
		c.mu.Unlock()
		return false
	}
	if ev.at.After(c.now) {
		c.now = ev.at
	}
	fn := ev.fn
	c.mu.Unlock()
	if fn != nil {
		fn()
	}
	return true
}

// RunUntil executes pending events in order until the queue is empty or the
// next event is after deadline; time then advances to deadline. It returns
// the number of events executed.
func (c *VirtualClock) RunUntil(deadline time.Time) int {
	n := 0
	for {
		c.mu.Lock()
		ev := c.queue.peek()
		if ev == nil || ev.at.After(deadline) {
			if deadline.After(c.now) {
				c.now = deadline
			}
			c.mu.Unlock()
			return n
		}
		c.queue.pop()
		if ev.at.After(c.now) {
			c.now = ev.at
		}
		fn := ev.fn
		c.mu.Unlock()
		if fn != nil {
			fn()
		}
		n++
	}
}

// Advance moves the clock forward by d, executing every event that falls in
// the window. It returns the number of events executed.
func (c *VirtualClock) Advance(d time.Duration) int {
	return c.RunUntil(c.Now().Add(d))
}

// run executes events until the queue drains, returning the count executed.
// Use with care: self-rescheduling periodic events never drain; prefer
// RunUntil/Advance for those.
func (c *VirtualClock) run() int {
	n := 0
	for c.Step() {
		n++
	}
	return n
}

// pending returns the number of scheduled events not yet executed.
func (c *VirtualClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.len()
}

type virtualTimer struct {
	clock *VirtualClock
	ev    *event
}

func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.ev.cancelled || t.ev.done {
		return false
	}
	t.ev.cancelled = true
	t.ev.fn = nil
	return true
}

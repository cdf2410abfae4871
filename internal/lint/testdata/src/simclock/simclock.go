// Package simclockfixture exercises the simclock analyzer: it imports
// integrade/internal/sim, making it sim-driven, so direct wall-clock reads
// must be flagged while injected-clock use and pure time conversions pass.
package simclockfixture

import (
	"time"
	wall "time"

	"integrade/internal/sim"
)

// Agent is a sim-driven component with an injected clock.
type Agent struct {
	clock sim.Clock
}

// Bad reads the wall clock directly.
func (a *Agent) Bad() time.Time {
	time.Sleep(time.Millisecond)   // want `sim-driven package uses wall clock time\.Sleep`
	<-time.After(time.Millisecond) // want `sim-driven package uses wall clock time\.After`
	return time.Now()              // want `sim-driven package uses wall clock time\.Now`
}

// BadAliased hides the time package behind an import alias.
func BadAliased() wall.Time {
	return wall.Now() // want `sim-driven package uses wall clock time\.Now`
}

// BadValue passes a wall-clock function as a value.
func BadValue() func() time.Time {
	return time.Now // want `sim-driven package uses wall clock time\.Now`
}

// Good takes time only through the injected clock.
func (a *Agent) Good() time.Time {
	a.clock.Sleep(time.Millisecond)
	return a.clock.Now()
}

// Allowed demonstrates the escape hatch for deliberate wall-clock use.
func Allowed() time.Time {
	//lint:allow simclock wall-clock latency measurement
	return time.Now()
}

// Conversions shows that pure time arithmetic stays legal, methods that
// share a banned function's name included.
func Conversions(t time.Time) time.Duration {
	deadline := time.Date(2026, time.January, 5, 0, 0, 0, 0, time.UTC)
	if t.After(deadline) {
		return 0
	}
	return deadline.Sub(t)
}

//go:build !race

package orb

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

//go:build race

package orb

// raceEnabled reports whether the race detector is compiled in. The TCP
// allocation gate skips under it: a race build's sync.Pool drops a quarter
// of what is put back, so the pooled frames and buffers allocate afresh.
const raceEnabled = true

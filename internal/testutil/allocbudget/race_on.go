//go:build race

package allocbudget

// Race reports whether the race detector is compiled in. A gate that counts
// pooled objects skips under it: a race build's sync.Pool drops a quarter of
// what is put back, so pooled frames, buffers and encoders allocate afresh.
const Race = true

// FewKiB bounds, in bytes, what a decoder may allocate on a frame whose
// element count claims far more than the frame holds: where an unbounded count
// costs megabytes, a bounded one costs a few KiB — and a race build allocates
// some KiB of its own meanwhile.
const FewKiB = 64 << 10

//go:build !race

package allocbudget

// Race reports whether the race detector is compiled in.
const Race = false

// FewKiB bounds, in bytes, what a decoder may allocate on a frame whose
// element count claims far more than the frame holds: where an unbounded count
// costs megabytes, a bounded one costs a few KiB.
const FewKiB = 4 << 10

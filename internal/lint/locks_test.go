package lint_test

import (
	"testing"

	"integrade/internal/lint"
	"integrade/internal/lint/linttest"
)

// The fixtures each stress one kind of locks finding: a blocking operation
// under a lock, a call that may block through helpers, the lock-order facts,
// and literals a wrapper hands on to AfterFunc or orb.Serve. Every one runs
// against the whole analyzer.

func TestLockHeld(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/lockheld")
}

func TestLockHeldTransitive(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/lockheldtransitive")
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/lockorder")
}

func TestLockHeldThroughWrappers(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/asyncwrap")
}

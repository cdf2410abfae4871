package lint_test

import (
	"testing"

	"integrade/internal/lint"
	"integrade/internal/lint/linttest"
)

// The three fixtures each stress one kind of locks finding: a blocking
// operation under a lock, a call that may block through helpers, and the
// lock-order facts. Every one runs against the whole analyzer.

func TestLockHeld(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/lockheld")
}

func TestLockHeldTransitive(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/lockheldtransitive")
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.Locks, "testdata/src/lockorder")
}

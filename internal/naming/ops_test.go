package naming

import (
	"testing"

	"integrade/internal/testutil/optest"
)

// TestOpsRoundTrip checks the resolve operation's declaration against itself
// (optest.Check).
func TestOpsRoundTrip(t *testing.T) {
	optest.Check(t, resolve, "grm/cluster-0", ref("srv", "grm"))
}

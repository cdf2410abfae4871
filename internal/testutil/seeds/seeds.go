// Package seeds runs a seeded test body once per fixed seed, each as its own
// subtest, so the ordinary `go test` run covers every seed:
//
//	func TestX(t *testing.T) {
//		seeds.Run(t, func(t *testing.T, seed int64) { ... })
//	}
//
// One seed reruns alone with `go test -run 'TestX/seed=7'`.
package seeds

import (
	"strconv"
	"testing"
)

// list is the seeds every seeded test runs at, in this order.
var list = [...]int64{1, 7, 42}

// Run runs body as the subtests seed=1, seed=7 and seed=42, in order and
// one at a time.
func Run(t *testing.T, body func(t *testing.T, seed int64)) {
	t.Helper()
	for _, seed := range list {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) { body(t, seed) })
	}
}

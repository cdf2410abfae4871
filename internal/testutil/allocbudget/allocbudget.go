// Package allocbudget reads the checked-in allocation gates: files of
// `<name> <budget>` rows, one per measured path, in which '#' starts a
// comment. A budget is allocations per operation, or bytes where the file says
// so. A test measures each row it knows and fails when one is over;
// lowering a row is how an optimization ratchets its gate down.
package allocbudget

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Row is one named allocation gate.
type Row struct {
	Name   string
	Budget float64
}

// Parse reads the rows of the budget file at path, failing tb on a malformed
// row or a file without any.
func Parse(tb testing.TB, path string) []Row {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var rows []Row
	for i, line := range strings.Split(string(raw), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			tb.Fatalf("%s:%d: want `<name> <budget>`, got %q", path, i+1, line)
		}
		budget, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			tb.Fatalf("%s:%d: bad budget %q: %v", path, i+1, fields[1], err)
		}
		rows = append(rows, Row{Name: fields[0], Budget: budget})
	}
	if len(rows) == 0 {
		tb.Fatalf("%s: no budget rows", path)
	}
	return rows
}

// Bytes returns how many bytes f allocates, as the least of three runs, each
// after a collection has settled the heap: another goroutine's allocations
// count if they fall inside a run, but not unless they fall inside all three.
// f must do the same work every time it runs.
func Bytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

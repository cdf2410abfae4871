package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID:      "T1",
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 1e6)
	out := tb.String()
	for _, want := range []string{"T1", "demo", "a", "bee", "2.50", "1000000", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{1.5, "1.50"},
		{100, "100"},
		{0.333, "0.33"},
		{-2, "-2"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.in); got != tt.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15 (E1-E10, E13, E15 + A1-A3)", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Fatalf("median(nil) = %d", got)
	}
	if got := median([]int{3, 1, 2}); got != 2 {
		t.Fatalf("median = %d", got)
	}
	if got := median([]int{5}); got != 5 {
		t.Fatalf("median single = %d", got)
	}
}

// Fast smoke runs of selected experiments: the full versions run via
// cmd/integrade-bench and the root benchmarks; here we only assert they
// produce well-formed, plausibly-shaped tables.

func TestExp2Shape(t *testing.T) {
	tb := Exp2ReservationProtocol(1)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Negotiation rounds per placement must increase with load.
	first, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	last, _ := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][2], 64)
	if last <= first {
		t.Fatalf("rounds per placement did not grow with load: %v -> %v", first, last)
	}
}

func TestExp5Shape(t *testing.T) {
	tb := Exp5OwnerQoS(1)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	get := func(mode, col string) float64 {
		for _, r := range tb.Rows {
			if r[0] != mode {
				continue
			}
			for i, c := range tb.Columns {
				if c == col {
					v, _ := strconv.ParseFloat(r[i], 64)
					return v
				}
			}
		}
		t.Fatalf("missing %s/%s", mode, col)
		return 0
	}
	if get("greedy", "mean_owner_slowdown") <= 1.1 {
		t.Fatal("greedy did not slow the owner")
	}
	if get("shared", "mean_owner_slowdown") != 1 {
		t.Fatal("shared mode slowed the owner")
	}
	if get("shared", "harvested_MI") <= 0 {
		t.Fatal("shared mode harvested nothing")
	}
	if get("idle-only", "harvested_MI") != 0 {
		t.Fatal("idle-only harvested from a busy machine")
	}
	if get("greedy", "harvested_MI") <= get("shared", "harvested_MI") {
		t.Fatal("greedy harvested less than shared")
	}
}

func TestExp7Shape(t *testing.T) {
	tb := Exp7VirtualTopology(1)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	satisfied := 0
	for _, r := range tb.Rows {
		if r[len(r)-1] == "true" {
			satisfied++
		}
	}
	if satisfied != 2 {
		t.Fatalf("satisfied rows = %d, want 2 (10 and 100 Mbps backbones)", satisfied)
	}
}

func TestAblationMaxAttemptsShape(t *testing.T) {
	tb := AblationMaxAttempts(1)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Placements must be non-decreasing in the attempt budget.
	prev := -1.0
	for _, r := range tb.Rows {
		placed, _ := strconv.ParseFloat(r[1], 64)
		if placed < prev {
			t.Fatalf("placements decreased with larger budget: %v", tb.Rows)
		}
		prev = placed
	}
}

func TestExp13Shape(t *testing.T) {
	tb := exp13Seed1()
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (kill block of 5 + partition block of 3)", len(tb.Rows))
	}
	col := func(name string) int {
		for i, c := range tb.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("missing column %s", name)
		return -1
	}
	pct, lost, ms, rec := col("completion_pct"), col("inflight_lost"), col("makespan_min"), col("recover_s")
	fault, dual := col("fault"), col("dual_writes")
	mode := func(i int, want, wantFault string) []string {
		r := tb.Rows[i]
		if r[0] != want || r[fault] != wantFault {
			t.Fatalf("row %d = %v, want %s/%s", i, r, want, wantFault)
		}
		return r
	}

	// No failover: the pending wave is stranded, the cluster never recovers.
	if r := mode(0, "none", "kill"); r[rec] != "-" || r[pct] == "100" {
		t.Fatalf("no-failover row = %v", r)
	}
	// The consensus replica set: election replaces the detection threshold and
	// must be strictly safe under both faults — nothing lost, nothing
	// double-written, full completion.
	quorum := mode(4, "quorum", "kill")
	for _, q := range [][]string{quorum, mode(7, "quorum", "partition")} {
		if q[rec] == "-" || q[pct] != "100" || q[lost] != "0" || q[dual] != "0" {
			t.Fatalf("quorum row not loss-free: %v", q)
		}
	}
	// A cold rebuild recovers the full bag at every detection threshold, but
	// it reaps and repeats the in-flight wave, which must cost makespan
	// against the quorum set that preserves it. A clean kill leaves no one to
	// double-write.
	quorumMs, _ := strconv.ParseFloat(quorum[ms], 64)
	for i := 1; i <= 3; i++ {
		cold := mode(i, "cold", "kill")
		if cold[pct] != "100" || cold[rec] == "-" {
			t.Fatalf("cold rebuild incomplete: %v", cold)
		}
		if coldLost, _ := strconv.Atoi(cold[lost]); coldLost == 0 {
			t.Fatalf("cold rebuild reaped nothing: %v", cold)
		}
		if coldMs, _ := strconv.ParseFloat(cold[ms], 64); quorumMs >= coldMs {
			t.Fatalf("quorum makespan %v not better than cold %v (detect %s)", quorumMs, coldMs, cold[2])
		}
		if cold[dual] != "0" {
			t.Fatalf("dual writes after a clean kill: %v", cold)
		}
	}
	if quorum[dual] != "0" {
		t.Fatalf("dual writes after a clean kill: %v", quorum)
	}
	mode(5, "none", "partition")
	mode(6, "cold", "partition")
}

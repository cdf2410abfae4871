package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSchedulingOutputMatchesSeedGoldens is the differential gate for the
// sharded copy-on-write trader and the batched admission pipeline: the
// goldens under testdata/ were rendered by the pre-pipeline scheduler (the
// flat locked offer index, one-app-per-call Submit), and the current code
// must reproduce them byte for byte. E5 exercises owner-QoS scheduling
// decisions end to end; E9 drives placements through failure recovery and
// re-negotiation. Any reordering introduced by the shard merge, the
// snapshot cache, or admission batching shows up here as a diff. Two
// deliberate regenerations since, both of E9: its two 20%-crash / 10%-loss
// InteGrade rows, when completions moved into the Information Update — see
// TestE9MessageLossCostsNoCompletion for what they now have to show — and its
// InteGrade rows again when negotiation became per node: the whole bag is
// placed inside Submit, so every task starts at t = 0 (makespan 4.17 → 4 h
// fault-free) and a crash finds its victims a fixed distance past a checkpoint.
func TestSchedulingOutputMatchesSeedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped in -short mode")
	}
	cases := []struct {
		golden string
		id     string
		seed   int64
	}{
		{"golden_e5_seed1.txt", "E5", 1},
		{"golden_e5_seed42.txt", "E5", 42},
		{"golden_e9_seed1.txt", "E9", 1},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			checkGolden(t, tc.golden, experiment(t, tc.id).Run(tc.seed))
		})
	}
}

// TestExperimentGoldens pins the stdout of every other registered
// experiment at seed 1, so that a change that moves any paper number shows
// as a diff. Each golden is verbatim `go run ./cmd/integrade-bench -exp
// <ID> -seed <n> 2>/dev/null`, checked byte-identical over 20 runs before it
// was pinned; regenerate one that way only when a change means to move it.
func TestExperimentGoldens(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E6", "E7", "E8", "E10", "E13", "A1", "A2", "A3"} {
		golden := goldenName(id, 1)
		t.Run(golden, func(t *testing.T) {
			var tb Table
			switch id {
			case "E4":
				if testing.Short() {
					t.Skip("E4 takes ~7 s; skipped in -short mode")
				}
				tb = experiment(t, id).Run(1)
			case "E13":
				tb = exp13Seed1()
			default:
				tb = experiment(t, id).Run(1)
			}
			checkGolden(t, golden, tb)
		})
	}
}

// TestExperimentOutputByteStable renders selected sim-driven experiments
// twice in one process with seed 42 and requires both renderings — the
// exact bytes integrade-bench prints — to equal the pinned golden. E8
// routes through the hierarchy, whose child iteration order is exactly what
// the maporder analyzer guards; a regression there shows up here as a diff,
// and state one run leaks into the next shows as the second run diverging.
func TestExperimentOutputByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments twice; skipped in -short mode")
	}
	runTwiceAgainstGolden(t, 42, "E2", "E8", "A2")
}

// TestExperimentsDeterministic requires simulated experiments to be
// bit-identical for a fixed seed: two runs in one process at seed 7 must
// both render as the pinned golden.
func TestExperimentsDeterministic(t *testing.T) {
	runTwiceAgainstGolden(t, 7, "E2", "E5", "E7", "E9", "A2")
}

// runTwiceAgainstGolden runs each experiment in ids twice at seed and
// checks both tables against its golden.
func runTwiceAgainstGolden(t *testing.T, seed int64, ids ...string) {
	t.Helper()
	for _, id := range ids {
		e := experiment(t, id)
		for range 2 {
			checkGolden(t, goldenName(id, seed), e.Run(seed))
		}
	}
}

// goldenName is the testdata file that pins experiment id at seed.
func goldenName(id string, seed int64) string {
	return fmt.Sprintf("golden_%s_seed%d.txt", strings.ToLower(id), seed)
}

// exp13Seed1 is the one E13 run TestExp13Shape and E13's golden share.
var exp13Seed1 = sync.OnceValue(func() Table { return Exp13Failover(1) })

// experiment returns the registered experiment id.
func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("experiment %s not registered", id)
	return Experiment{}
}

// checkGolden fails t unless tb renders as testdata/golden does. The goldens
// are verbatim integrade-bench stdout, whose Println appends one newline
// after Table.String().
func checkGolden(t *testing.T, golden string, tb Table) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.String() + "\n"; got != string(want) {
		t.Errorf("%s diverged from %s:\n--- golden\n%s\n--- got\n%s", tb.ID, golden, want, got)
	}
}

// TestE9MessageLossCostsNoCompletion states the claim the E9 golden's loss
// rows carry, so that a regenerated golden cannot quietly give it up: with
// recovery on, dropping a tenth of all control messages loses InteGrade no
// task — it finishes what the same crash schedule finishes with no loss,
// with the same number of re-executions. A completion rides the Information
// Update and is sent again until a manager accepts it; before that it was a
// single notification, and the 10% rows finished 31 of 40.
func TestE9MessageLossCostsNoCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment; skipped in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		table := Exp9Recovery(seed)
		col := func(name string) int {
			for i, c := range table.Columns {
				if c == name {
					return i
				}
			}
			t.Fatalf("E9 has no column %q", name)
			return -1
		}
		row := func(loss string) []string {
			for _, r := range table.Rows {
				if r[col("crash")] == "20%" && r[col("loss")] == loss && r[col("scheduler")] == "integrade" {
					return r
				}
			}
			t.Fatalf("E9 has no integrade row at 20%% crash, %s loss", loss)
			return nil
		}
		clean, lossy := row("0%"), row("10%")
		if clean[col("tasks_done")] != fmt.Sprint(e9Tasks) {
			t.Errorf("seed %d: without loss %s of %d tasks finished", seed, clean[col("tasks_done")], e9Tasks)
		}
		for _, name := range []string{"tasks_done", "evictions"} {
			if got, want := lossy[col(name)], clean[col(name)]; got != want {
				t.Errorf("seed %d: %s under 10%% loss = %s, without loss = %s", seed, name, got, want)
			}
		}
	}
}

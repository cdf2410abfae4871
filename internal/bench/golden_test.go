package bench

import (
	"fmt"
	"os"
	"path/filepath"
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
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var run func(int64) Table
			for _, e := range All() {
				if e.ID == tc.id {
					run = e.Run
				}
			}
			if run == nil {
				t.Fatalf("experiment %s not registered", tc.id)
			}
			// The goldens are verbatim integrade-bench stdout, whose
			// Println appends one newline after Table.String().
			got := run(tc.seed).String() + "\n"
			if got != string(want) {
				t.Errorf("%s seed %d diverged from the pre-pipeline golden %s:\n--- golden\n%s\n--- got\n%s",
					tc.id, tc.seed, tc.golden, want, got)
			}
		})
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

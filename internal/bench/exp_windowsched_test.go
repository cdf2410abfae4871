package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExp15WindowsAwareBeatsBlind is the acceptance gate for
// availability-window scheduling: on every intermittent fleet mix the
// window-aware scheduler must waste strictly less work than the
// window-blind one at an equal-or-better makespan, and the always-on
// control must show the window machinery is free when nobody departs. It
// also pins the whole table: the measurement is simulation-driven, so seed 1
// must render testdata/golden_e15_seed1.txt byte for byte.
func TestExp15WindowsAwareBeatsBlind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve full fleet simulations; skipped in -short mode")
	}
	runs, err := measureWindows(1)
	if err != nil {
		t.Fatal(err)
	}
	byFleet := map[string]map[string]windowsRun{}
	for _, r := range runs {
		if byFleet[r.Fleet] == nil {
			byFleet[r.Fleet] = map[string]windowsRun{}
		}
		byFleet[r.Fleet][r.Scheduler] = r
	}
	if len(byFleet) != 3 {
		t.Fatalf("fleet mixes = %d, want 3 (%v)", len(byFleet), runs)
	}

	for _, fleet := range []string{"office-hours", "night-owl"} {
		aware, blind := byFleet[fleet]["window-aware"], byFleet[fleet]["window-blind"]
		if aware.Fleet == "" || blind.Fleet == "" {
			t.Fatalf("%s: missing scheduler rows", fleet)
		}
		// The headline claim: less wasted work at equal-or-better makespan.
		if aware.WorkLostGI >= blind.WorkLostGI {
			t.Errorf("%s: aware lost %.1f GI, blind %.1f — window awareness saved nothing",
				fleet, aware.WorkLostGI, blind.WorkLostGI)
		}
		if aware.MakespanH < 0 || blind.MakespanH < 0 {
			t.Errorf("%s: bag did not finish within the horizon (aware %.1f, blind %.1f)",
				fleet, aware.MakespanH, blind.MakespanH)
		} else if aware.MakespanH > blind.MakespanH {
			t.Errorf("%s: aware makespan %.2fh worse than blind %.2fh",
				fleet, aware.MakespanH, blind.MakespanH)
		}
		if aware.TasksDone < blind.TasksDone {
			t.Errorf("%s: aware finished %d tasks, blind %d", fleet, aware.TasksDone, blind.TasksDone)
		}
		// The mechanisms must actually engage: forecast-window rejections or
		// drains on the aware side, nothing on the blind side.
		if aware.GracefulDepartures == 0 || aware.TasksDrained == 0 || aware.DrainSavedGI <= 0 {
			t.Errorf("%s: aware run never drained (departures=%d drained=%d saved=%.1f)",
				fleet, aware.GracefulDepartures, aware.TasksDrained, aware.DrainSavedGI)
		}
		if blind.GracefulDepartures != 0 || blind.TasksDrained != 0 || blind.WindowRejected != 0 {
			t.Errorf("%s: blind run used window machinery: %+v", fleet, blind)
		}
		if aware.TasksEvicted >= blind.TasksEvicted {
			t.Errorf("%s: aware evictions %d not below blind %d",
				fleet, aware.TasksEvicted, blind.TasksEvicted)
		}
	}

	// The always-on control: no owners, no departures — the two schedulers
	// must produce identical rows, and nothing may be lost or rejected.
	ctrlAware, ctrlBlind := byFleet["always-on"]["window-aware"], byFleet["always-on"]["window-blind"]
	ctrlBlind.Scheduler = ctrlAware.Scheduler
	if ctrlAware != ctrlBlind {
		t.Errorf("always-on rows diverge:\naware %+v\nblind %+v", ctrlAware, ctrlBlind)
	}
	if ctrlAware.WorkLostGI != 0 || ctrlAware.WindowRejected != 0 || ctrlAware.TasksEvicted != 0 {
		t.Errorf("always-on control not clean: %+v", ctrlAware)
	}

	// The golden is verbatim `integrade-bench -exp E15 -seed 1` stdout, whose
	// Println appends one newline after Table.String().
	want, err := os.ReadFile(filepath.Join("testdata", "golden_e15_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := windowsTable(runs, nil).String() + "\n"; got != string(want) {
		t.Errorf("E15 seed 1 diverged from golden_e15_seed1.txt:\n--- golden\n%s\n--- got\n%s", want, got)
	}
}

package chaos

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"integrade/internal/sim"
	"integrade/internal/testutil/seeds"
	"integrade/internal/usage"
)

func TestScheduleFlapsFiresEachCycle(t *testing.T) {
	clock := sim.NewVirtualClock()
	e := NewEngine(clock, sim.NewRNG(1))
	var crashed, restarted atomic.Int64
	e.RegisterNode("flappy", NodeHooks{
		Crash:   func() { crashed.Add(1) },
		Restart: func() { restarted.Add(1) },
	})
	e.ScheduleFlaps("flappy", []Flap{
		{Down: 1 * time.Minute, Up: 2 * time.Minute},
		{Down: 3 * time.Minute, Up: 4 * time.Minute},
		{Down: 5 * time.Minute}, // Up unset: never comes back from this cycle
	})

	clock.Advance(90 * time.Second) // t=1m30s: inside the first outage
	if crashed.Load() != 1 || restarted.Load() != 0 {
		t.Fatalf("mid-cycle 1: crashed=%d restarted=%d", crashed.Load(), restarted.Load())
	}
	clock.Advance(time.Minute) // t=2m30s: back up
	if restarted.Load() != 1 {
		t.Fatalf("restart 1 missing: restarted=%d", restarted.Load())
	}
	clock.Advance(10 * time.Minute) // whole schedule elapsed
	if crashed.Load() != 3 || restarted.Load() != 2 {
		t.Fatalf("final: crashed=%d restarted=%d, want 3/2", crashed.Load(), restarted.Load())
	}
	s := e.Stats()
	if s.Crashes != 3 || s.Restarts != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// flapsFromTrace converts a usage trace's busy windows over the horizon into
// a flap schedule: the node leaves the grid whenever the owner sits down.
// This is how bench E15 and the stress suites derive intermittent fleets.
func flapsFromTrace(tr *usage.Trace, from time.Time, horizon time.Duration) []Flap {
	var flaps []Flap
	for _, span := range tr.BusyWindows(from, horizon) {
		flaps = append(flaps, Flap{Down: span.Start.Sub(from), Up: span.End.Sub(from)})
	}
	return flaps
}

func TestScheduleFlapsFromUsageTrace(t *testing.T) {
	clock := sim.NewVirtualClock()
	e := NewEngine(clock, sim.NewRNG(7))
	var crashed, restarted atomic.Int64
	e.RegisterNode("office", NodeHooks{
		Crash:   func() { crashed.Add(1) },
		Restart: func() { restarted.Add(1) },
	})
	tr := usage.NewTrace(usage.OfficeWorker, 7)
	flaps := flapsFromTrace(tr, clock.Now(), 7*24*time.Hour)
	if len(flaps) == 0 {
		t.Fatal("office-worker trace produced no busy windows")
	}
	e.ScheduleFlaps("office", flaps)
	clock.Advance(7*24*time.Hour + time.Minute)
	if got := int(crashed.Load()); got != len(flaps) {
		t.Fatalf("crashes = %d, want %d (one per busy window)", got, len(flaps))
	}
	if got := int(restarted.Load()); got != len(flaps) {
		t.Fatalf("restarts = %d, want %d", got, len(flaps))
	}
}

// flapTrace runs a seeded flap schedule and returns the crash/restart
// event sequence with timestamps as a string.
func flapTrace(t *testing.T, seed int64) string {
	t.Helper()
	clock := sim.NewVirtualClock()
	e := NewEngine(clock, sim.NewRNG(seed))
	start := clock.Now()
	var events atomic.Value
	events.Store("")
	record := func(kind string) func() {
		return func() {
			events.Store(events.Load().(string) +
				fmt.Sprintf("%s@%v;", kind, clock.Now().Sub(start)))
		}
	}
	e.RegisterNode("n", NodeHooks{Crash: record("down"), Restart: record("up")})
	// The trace's scheduled windows plus a seeded per-cycle jitter: the base
	// schedule is noise-free by design, so the seed enters through the RNG,
	// the same way E15 staggers its fleet.
	rng := sim.NewRNG(seed).Fork("flaps")
	tr := usage.NewTrace(usage.NightOwl, seed)
	flaps := flapsFromTrace(tr, start, 48*time.Hour)
	for i := range flaps {
		jitter := time.Duration(rng.Intn(600)) * time.Second
		flaps[i].Down += jitter
		flaps[i].Up += jitter
	}
	e.ScheduleFlaps("n", flaps)
	clock.Advance(48*time.Hour + time.Minute)
	s := e.Stats()
	return fmt.Sprintf("%scrashes=%d restarts=%d", events.Load().(string), s.Crashes, s.Restarts)
}

// TestFlapScheduleSeededDeterminism checks at each seed that the same (seed,
// trace) pair produces the byte-identical flap sequence run after run, and
// that the next seed gives another one.
func TestFlapScheduleSeededDeterminism(t *testing.T) {
	seeds.Run(t, func(t *testing.T, seed int64) {
		a := flapTrace(t, seed)
		b := flapTrace(t, seed)
		if a == "crashes=0 restarts=0" {
			t.Fatal("empty flap trace")
		}
		if a != b {
			t.Fatalf("seed %d diverged:\n%s\n%s", seed, a, b)
		}
		c := flapTrace(t, seed+1)
		if a == c {
			t.Fatalf("seed %d and %d produced identical traces", seed, seed+1)
		}
	})
}

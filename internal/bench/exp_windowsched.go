package bench

import (
	"fmt"
	"time"

	"integrade/internal/asct"
	"integrade/internal/chaos"
	"integrade/internal/core"
	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

// This file implements E15, the availability-window scheduling experiment:
// the same bag of tasks over intermittent desktop fleets whose machines
// leave the grid whenever their owner sits down (a chaos flap schedule
// derived from the usage profile's busy windows), under a window-aware
// scheduler (LUPA forecast windows + pre-departure drains) and a
// window-blind one (the pre-PR scheduler: placements ignore forecasts,
// departures look like silent crashes). Every number is simulation-driven, so
// the table is byte-stable per seed: testdata/golden_e15_seed1.txt pins it.

// E15 fleet and workload. Desktop mixes pair e15Desktops owner workstations
// with e15Dedicated always-on machines so the bag can always finish; the
// always-on control fleet has the same nominal slot count with no owner
// volatility, where aware and blind must coincide.
const (
	e15Desktops  = 8
	e15Dedicated = 2
	e15DediMIPS  = 900
	e15Tasks     = 60
	e15TaskWork  = 16200 * 400 // 4.5h of work at the 400-MIPS allocation
	e15CkptWork  = 3600 * 400  // hourly checkpoints
	e15Train     = 8 * 24 * time.Hour
	e15Submit    = 4 * time.Hour // pre-dawn: owners asleep, grid idle
	e15Horizon   = 64 * time.Hour
	e15Step      = 5 * time.Minute
	e15DrainLead = 10 * time.Minute
	// e15FlapSpan fixes how far ahead the owner power-off schedule is laid
	// out, independent of the polling horizon: the RNG draws per flap, so
	// tying this to e15Horizon would reshuffle every jitter on a horizon
	// tweak.
	e15FlapSpan = 3 * 24 * time.Hour
)

var e15Alloc = resource.Vector{MIPS: 400, RAMMB: 64}

// e15Fleet is one fleet mix: a usage profile for the desktop majority, or
// nil for the all-dedicated control.
type e15Fleet struct {
	name    string
	profile *usage.Profile
}

func e15Fleets() []e15Fleet {
	office := usage.OfficeWorker
	owl := usage.NightOwl
	return []e15Fleet{
		{"office-hours", &office},
		{"night-owl", &owl},
		{"always-on", nil},
	}
}

// windowsRun is one (fleet mix, scheduler) measurement.
type windowsRun struct {
	Fleet              string
	Scheduler          string
	TasksDone          int
	CompletionPct      float64
	MakespanH          float64 // -1: not done within the horizon
	TasksEvicted       int
	NodesDeclaredDead  int
	GracefulDepartures int
	TasksDrained       int
	WorkLostGI         float64
	DrainSavedGI       float64
	WindowRejected     int
}

// scheduleE15Flaps powers each desktop off for every owner-busy window over
// the run: the machine crashes silently shortly after the owner sits down
// and reboots shortly after they leave. The busy schedule is the profile's
// noise-free base signal (identical for every node of the profile), so the
// per-node spread comes from a seeded RNG stream — the same seed reproduces
// the same flap sequence.
func scheduleE15Flaps(g *core.Grid, ids []string, profile usage.Profile, seed int64) {
	engine := g.EnableChaos(seed)
	now := g.Now()
	rng := sim.NewRNG(seed).Fork("e15-flaps")
	spans := usage.NewTrace(profile, seed).BusyWindows(now, e15FlapSpan)
	for _, id := range ids {
		flaps := make([]chaos.Flap, 0, len(spans))
		for _, span := range spans {
			// Down lags the busy start by 1-11 minutes: the owner works a
			// little before unplugging, which leaves the pre-departure drain
			// (fired drainLead before the forecast window closes) room to
			// hand running tasks back before the machine disappears.
			down := span.Start.Sub(now) + time.Duration(60+rng.Intn(600))*time.Second
			up := span.End.Sub(now) + time.Duration(rng.Intn(600))*time.Second
			flaps = append(flaps, chaos.Flap{Down: down, Up: up})
		}
		engine.ScheduleFlaps(id, flaps)
	}
}

// runWindowsFleet trains one fleet's LUPAs for e15Train, installs the
// owner-driven flap schedule, submits the bag, and drives the run to
// completion or the horizon.
func runWindowsFleet(seed int64, fl e15Fleet, aware bool) (windowsRun, error) {
	scheduler := "window-blind"
	if aware {
		scheduler = "window-aware"
	}
	res := windowsRun{Fleet: fl.name, Scheduler: scheduler, MakespanH: -1}

	g := core.NewGrid(core.WithSeed(seed))
	defer g.Stop()
	opts := []core.ClusterOption{
		core.WithPolicy(grm.UsageAware{}),
		core.WithSchedulePeriod(time.Minute),
		core.WithUpdatePeriod(5 * time.Minute),
	}
	if aware {
		opts = append(opts,
			core.WithGRMOptions(grm.WithWindowAware()),
			core.WithLRMOptions(lrm.WithDepartureDrain(e15DrainLead)))
	}
	c, err := g.AddCluster("fleet", opts...)
	if err != nil {
		return res, err
	}
	var desktops []string
	if fl.profile != nil {
		if desktops, err = c.AddNodes(core.DesktopNodes(e15Desktops, *fl.profile)); err != nil {
			return res, err
		}
		if _, err = c.AddNodes(core.DedicatedNodes(e15Dedicated, e15DediMIPS)); err != nil {
			return res, err
		}
	} else {
		if _, err = c.AddNodes(core.DedicatedNodes(e15Desktops+e15Dedicated, e15DediMIPS)); err != nil {
			return res, err
		}
	}

	// Train the LUPAs on the undisturbed owner signal, then let the
	// machines start leaving.
	if err := g.Advance(e15Train); err != nil {
		return res, err
	}
	if fl.profile != nil {
		scheduleE15Flaps(g, desktops, *fl.profile, seed)
	}
	if err := g.Advance(e15Submit); err != nil {
		return res, err
	}

	app := asct.NewApplication("bag").
		Parametric(e15Tasks, e15TaskWork).
		Allocate(e15Alloc).
		Checkpoint(e15CkptWork)
	h, err := g.SubmitTo("fleet", app)
	if err != nil {
		return res, err
	}

	for elapsed := e15Step; elapsed <= e15Horizon; elapsed += e15Step {
		if err := g.Advance(e15Step); err != nil {
			break
		}
		if st, err := h.Status(); err == nil && st.Done() {
			res.MakespanH = elapsed.Hours()
			break
		}
	}
	if st, err := h.Status(); err == nil {
		res.TasksDone = appDone(st)
	}
	res.CompletionPct = 100 * float64(res.TasksDone) / e15Tasks

	stats := c.GRM().Stats()
	res.TasksEvicted = stats.TasksEvicted
	res.NodesDeclaredDead = stats.NodesDeclaredDead
	res.GracefulDepartures = stats.GracefulDepartures
	res.TasksDrained = stats.TasksDrained
	res.WorkLostGI = stats.WorkLostMI / 1000
	res.DrainSavedGI = stats.DrainWorkSavedMI / 1000
	res.WindowRejected = stats.WindowRejected
	return res, nil
}

// measureWindows runs the E15 measurements: every fleet mix under the
// window-aware and the window-blind scheduler.
func measureWindows(seed int64) ([]windowsRun, error) {
	var runs []windowsRun
	for _, fl := range e15Fleets() {
		for _, aware := range []bool{true, false} {
			r, err := runWindowsFleet(seed, fl, aware)
			if err != nil {
				return runs, fmt.Errorf("windows fleet %s aware=%v: %w", fl.name, aware, err)
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// Exp15Windows renders the E15 measurements as an experiment table.
//
// Paper claim (§5.3, §7): LUPA collects usage patterns so the scheduler can
// make "predictions about the future availability of resources" — here
// sharpened into placements that must fit inside the predicted availability
// window, plus a proactive checkpoint-and-drain before the predicted
// departure, measured against a scheduler that treats every departure as a
// surprise crash.
func Exp15Windows(seed int64) Table {
	runs, err := measureWindows(seed)
	return windowsTable(runs, err)
}

// windowsTable renders measureWindows' result.
func windowsTable(runs []windowsRun, err error) Table {
	t := Table{
		ID:    "E15",
		Title: "Availability-window scheduling on intermittent fleets (aware vs. blind)",
		Columns: []string{"fleet", "scheduler", "tasks_done", "completion_pct",
			"makespan_h", "evicted", "dead_nodes", "departures", "drained",
			"lost_GI", "saved_GI", "win_rejected"},
	}
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("measurement failed: %v", err))
		return t
	}
	for _, r := range runs {
		ms := "-"
		if r.MakespanH >= 0 {
			ms = formatFloat(r.MakespanH)
		}
		t.AddRow(r.Fleet, r.Scheduler, r.TasksDone, formatFloat(r.CompletionPct),
			ms, r.TasksEvicted, r.NodesDeclaredDead, r.GracefulDepartures,
			r.TasksDrained, formatFloat(r.WorkLostGI), formatFloat(r.DrainSavedGI),
			r.WindowRejected)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d desktops + %d dedicated %v-MIPS machines; %d tasks of %.1fh each, %v checkpoints",
			e15Desktops, e15Dedicated, float64(e15DediMIPS), e15Tasks,
			float64(e15TaskWork)/400/3600, time.Duration(e15CkptWork/400)*time.Second),
		fmt.Sprintf("desktops power off when the owner arrives (flap schedule from the usage profile); LUPAs train %v first", e15Train),
		"window-aware = placements must fit the forecast availability window + pre-departure checkpoint/drain; window-blind treats departures as silent crashes",
		fmt.Sprintf("makespan granularity %v; '-' means not all tasks finished within the %v horizon", e15Step, e15Horizon),
	)
	return t
}

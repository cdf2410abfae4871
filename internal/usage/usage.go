// Package usage generates synthetic desktop-machine usage traces: the
// owner-side workload that InteGrade harvests around.
//
// The paper's LUPA collects "node usage information for short time intervals
// (e.g., 5 minutes)" grouped into periods, expecting behavioural categories
// such as "lunch-breaks, nights, holidays, working periods". The paper used
// real workstations; this package is the documented substitution: a
// deterministic generator whose profiles produce exactly those categories,
// with known ground truth, so prediction quality is measurable.
//
// Traces are deterministic functions of (profile, seed, instant): two reads
// of the same instant agree, and no state needs to advance, which lets the
// simulator sample sparsely.
package usage

import (
	"fmt"
	"math"
	"time"
)

// Interval is the paper's sampling granularity for usage collection.
const Interval = 5 * time.Minute

// SlotsPerDay is the number of sampling intervals in a day.
const SlotsPerDay = int(24 * time.Hour / Interval)

// Activity is the owner-consumed fraction of the machine at an instant.
type Activity struct {
	CPU float64 // fraction of CPU the owner uses, in [0,1]
	RAM float64 // fraction of RAM the owner uses, in [0,1]
}

// Busy reports whether the owner is actively using the machine, under the
// conventional threshold used throughout the experiments.
func (a Activity) Busy() bool { return a.CPU >= BusyThreshold }

// BusyThreshold is the owner-CPU fraction above which a machine counts as
// in use by its owner.
const BusyThreshold = 0.10

// Window is a recurring daily activity window.
type Window struct {
	StartHour float64 // inclusive, 0..24
	EndHour   float64 // exclusive, 0..24; may be < StartHour to wrap midnight
	CPU       float64 // owner CPU level inside the window
	RAM       float64 // owner RAM level inside the window
}

func (w Window) contains(hour float64) bool {
	if w.StartHour <= w.EndHour {
		return hour >= w.StartHour && hour < w.EndHour
	}
	return hour >= w.StartHour || hour < w.EndHour // wraps midnight
}

// Profile describes a category of machine owner as weekly windows plus
// stochastic texture.
type Profile struct {
	Name string
	// Weekday and Weekend windows; outside all windows the owner is absent.
	Weekday []Window
	Weekend []Window
	// NoiseSD perturbs in-window levels (per 5-minute slot).
	NoiseSD float64
	// BurstProb is the per-slot probability that an absent owner starts a
	// surprise session (the "idle node becomes busy without further notice"
	// the paper worries about).
	BurstProb float64
	// BurstSlots is the surprise-session length in 5-minute slots.
	BurstSlots int
	// BurstCPU is the CPU level during a surprise session.
	BurstCPU float64
	// HolidayEvery makes every Nth day (counting from the Unix epoch) a
	// holiday: the owner is absent regardless of weekday — the "holidays"
	// category the paper expects usage clustering to discover. Zero
	// disables holidays.
	HolidayEvery int
}

// Built-in profiles used across experiments; they map onto the behavioural
// categories the paper expects clustering to discover.
var (
	// OfficeWorker works 9-12 and 13-18 on weekdays (lunch dip), idle
	// otherwise.
	OfficeWorker = Profile{
		Name: "office",
		Weekday: []Window{
			{StartHour: 9, EndHour: 12, CPU: 0.55, RAM: 0.5},
			{StartHour: 12, EndHour: 13, CPU: 0.08, RAM: 0.3}, // lunch
			{StartHour: 13, EndHour: 18, CPU: 0.5, RAM: 0.5},
		},
		NoiseSD:    0.08,
		BurstProb:  0.004,
		BurstSlots: 6,
		BurstCPU:   0.6,
	}
	// LabMachine is a shared student workstation: moderately loaded
	// 10:00-22:00 every day, quieter weekends.
	LabMachine = Profile{
		Name: "lab",
		Weekday: []Window{
			{StartHour: 10, EndHour: 22, CPU: 0.45, RAM: 0.45},
		},
		Weekend: []Window{
			{StartHour: 12, EndHour: 18, CPU: 0.25, RAM: 0.3},
		},
		NoiseSD:    0.15,
		BurstProb:  0.01,
		BurstSlots: 4,
		BurstCPU:   0.5,
	}
	// NightOwl is a researcher's workstation active 20:00-02:00 daily.
	NightOwl = Profile{
		Name: "nightowl",
		Weekday: []Window{
			{StartHour: 20, EndHour: 2, CPU: 0.6, RAM: 0.55},
		},
		Weekend: []Window{
			{StartHour: 20, EndHour: 2, CPU: 0.6, RAM: 0.55},
		},
		NoiseSD:    0.1,
		BurstProb:  0.003,
		BurstSlots: 5,
		BurstCPU:   0.6,
	}
	// MostlyIdle is a rarely-touched machine — the grid's best friend.
	MostlyIdle = Profile{
		Name:       "mostlyidle",
		NoiseSD:    0.02,
		BurstProb:  0.002,
		BurstSlots: 3,
		BurstCPU:   0.4,
	}
	// OfficeWithHolidays is an office workstation whose owner also takes a
	// holiday every 10th day — idle days that fall on weekdays, the
	// "holidays" the paper expects usage analysis to absorb.
	OfficeWithHolidays = Profile{
		Name: "office-holidays",
		Weekday: []Window{
			{StartHour: 9, EndHour: 12, CPU: 0.55, RAM: 0.5},
			{StartHour: 12, EndHour: 13, CPU: 0.08, RAM: 0.3},
			{StartHour: 13, EndHour: 18, CPU: 0.5, RAM: 0.5},
		},
		NoiseSD:      0.08,
		BurstProb:    0.004,
		BurstSlots:   6,
		BurstCPU:     0.6,
		HolidayEvery: 10,
	}
	// AlwaysBusy is a machine whose owner never leaves (a build server,
	// say) — the grid should learn to avoid it.
	AlwaysBusy = Profile{
		Name: "alwaysbusy",
		Weekday: []Window{
			{StartHour: 0, EndHour: 24, CPU: 0.8, RAM: 0.7},
		},
		Weekend: []Window{
			{StartHour: 0, EndHour: 24, CPU: 0.8, RAM: 0.7},
		},
		NoiseSD: 0.05,
	}
)

// Profiles lists the built-in profiles.
func Profiles() []Profile {
	return []Profile{OfficeWorker, LabMachine, NightOwl, MostlyIdle, AlwaysBusy, OfficeWithHolidays}
}

// ProfileByName returns the built-in profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("usage: unknown profile %q", name)
}

// Trace is a deterministic usage signal for one machine.
type Trace struct {
	profile Profile
	seed    uint64
}

// NewTrace returns the trace of a machine with the given profile and seed.
func NewTrace(profile Profile, seed int64) *Trace {
	return &Trace{profile: profile, seed: uint64(seed)}
}

// At returns the owner activity at instant t.
func (tr *Trace) At(t time.Time) Activity {
	t = t.UTC()
	slot := slotIndex(t)
	base := tr.baseAt(t)
	if base.CPU > 0 {
		// In-window: add per-slot noise.
		n := tr.noise(slot) * tr.profile.NoiseSD
		return Activity{
			CPU: clamp01(base.CPU + n),
			RAM: clamp01(base.RAM + n/2),
		}
	}
	// Out of window: maybe a surprise burst covers this slot.
	if tr.inBurst(slot) {
		return Activity{CPU: clamp01(tr.profile.BurstCPU), RAM: 0.4}
	}
	// Background OS noise, always below the busy threshold.
	return Activity{CPU: 0.02 + 0.05*tr.unit(slot, 0x0F), RAM: 0.15}
}

// IsHoliday reports whether t falls on one of the profile's holidays.
func (tr *Trace) IsHoliday(t time.Time) bool {
	if tr.profile.HolidayEvery <= 0 {
		return false
	}
	day := t.UTC().Unix() / int64(24*time.Hour/time.Second)
	return day%int64(tr.profile.HolidayEvery) == 0
}

// baseAt returns the scheduled (noise-free) activity level at t.
func (tr *Trace) baseAt(t time.Time) Activity {
	if tr.IsHoliday(t) {
		return Activity{}
	}
	hour := float64(t.Hour()) + float64(t.Minute())/60
	windows := tr.profile.Weekday
	if wd := t.Weekday(); wd == time.Saturday || wd == time.Sunday {
		windows = tr.profile.Weekend
	}
	for _, w := range windows {
		if w.contains(hour) {
			return Activity{CPU: w.CPU, RAM: w.RAM}
		}
	}
	return Activity{}
}

// BusyAt reports whether the owner is busy at t.
func (tr *Trace) BusyAt(t time.Time) bool { return tr.At(t).Busy() }

// IdleUntil returns how long the machine stays continuously idle starting at
// t, scanning slot-by-slot up to horizon. This is the experiment's ground
// truth for idle-span prediction. If the machine is busy at t it returns 0.
func (tr *Trace) IdleUntil(t time.Time, horizon time.Duration) time.Duration {
	if tr.BusyAt(t) {
		return 0
	}
	var elapsed time.Duration
	for elapsed < horizon {
		elapsed += Interval
		if tr.BusyAt(t.Add(elapsed)) {
			return elapsed
		}
	}
	return horizon
}

// DayVector samples the trace's owner-CPU for each slot of the day
// containing t (midnight to midnight, UTC). LUPA clusters these vectors.
func (tr *Trace) DayVector(t time.Time) []float64 {
	midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	v := make([]float64, SlotsPerDay)
	for i := range v {
		v[i] = tr.At(midnight.Add(time.Duration(i) * Interval)).CPU
	}
	return v
}

// inBurst reports whether slot falls inside a surprise session. A session
// starts at slot s when hash(s) < BurstProb; the session covers the next
// BurstSlots slots.
func (tr *Trace) inBurst(slot int64) bool {
	if tr.profile.BurstProb <= 0 || tr.profile.BurstSlots <= 0 {
		return false
	}
	for back := int64(0); back < int64(tr.profile.BurstSlots); back++ {
		if tr.unit(slot-back, 0xB0) < tr.profile.BurstProb {
			return true
		}
	}
	return false
}

// unit returns a deterministic uniform value in [0,1) for (slot, salt).
func (tr *Trace) unit(slot int64, salt uint64) float64 {
	h := splitmix64(tr.seed ^ uint64(slot)*0x9E3779B97F4A7C15 ^ salt<<56)
	return float64(h>>11) / float64(1<<53)
}

// noise returns a deterministic standard-normal-ish value for slot, via a
// Box-Muller transform of two hashed uniforms.
func (tr *Trace) noise(slot int64) float64 {
	u1 := tr.unit(slot, 0x01)
	u2 := tr.unit(slot, 0x02)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func slotIndex(t time.Time) int64 {
	return t.Unix() / int64(Interval/time.Second)
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}

// splitmix64 is the SplitMix64 mixing function — a fast, well-distributed
// 64-bit hash used to derive per-slot randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

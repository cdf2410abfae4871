package usage

import "time"

// Span is a half-open time interval [Start, End). BusyWindows returns the
// trace's scheduled ground truth as spans, from which E15 derives seeded node
// up/down flap schedules.
type Span struct {
	Start time.Time
	End   time.Time
}

// BaseBusyAt reports whether the owner's scheduled (noise- and burst-free)
// activity is busy at t. This is the ground truth behind the stochastic
// signal At returns: BusyAt may flicker with per-slot noise and surprise
// bursts, but BaseBusyAt is the exact profile schedule LUPA is supposed to
// recover.
func (tr *Trace) BaseBusyAt(t time.Time) bool {
	return tr.baseAt(t).CPU >= BusyThreshold
}

// idleWindows returns the maximal scheduled-idle spans of
// [from, from+horizon), sampled at the 5-minute slot granularity. The spans
// are exact with respect to the profile schedule (holidays included, noise
// and bursts excluded).
func (tr *Trace) idleWindows(from time.Time, horizon time.Duration) []Span {
	return tr.scanWindows(from, horizon, false)
}

// BusyWindows returns the maximal scheduled-busy spans of
// [from, from+horizon) — the complement of idleWindows over the same range.
func (tr *Trace) BusyWindows(from time.Time, horizon time.Duration) []Span {
	return tr.scanWindows(from, horizon, true)
}

func (tr *Trace) scanWindows(from time.Time, horizon time.Duration, busy bool) []Span {
	if horizon <= 0 {
		return nil
	}
	from = from.UTC()
	end := from.Add(horizon)
	var out []Span
	var open *Span
	for t := from; t.Before(end); t = t.Add(Interval) {
		if tr.BaseBusyAt(t) == busy {
			sEnd := t.Add(Interval)
			if sEnd.After(end) {
				sEnd = end
			}
			if open == nil {
				open = &Span{Start: t, End: sEnd}
			} else {
				open.End = sEnd
			}
		} else if open != nil {
			out = append(out, *open)
			open = nil
		}
	}
	if open != nil {
		out = append(out, *open)
	}
	return out
}

package lupa

import (
	"time"

	"integrade/internal/usage"
)

// Window is one forecast availability window: an interval during which the
// node's trained usage pattern predicts the owner stays idle, so grid work
// placed inside it should run to completion without an owner-driven
// eviction. Confidence is the fraction of training days backing the
// prediction (1.0 = the category occurred on every observed day of that
// weekday); windows spanning several days carry the minimum over the days
// they cross.
type Window struct {
	Start      time.Time
	End        time.Time
	Confidence float64
}

// MatchedCategoryConfidence floors the confidence of a forecast day whose
// category was matched against live observations rather than inferred from
// the weekday majority. Watching this morning's slots track a centroid is
// stronger evidence than historical frequency, so an unusual-but-observed
// day (e.g. a holiday on a Wednesday) still produces windows the scheduler
// will trust.
const MatchedCategoryConfidence = 0.9

// forecast converts the trained pattern into availability windows covering
// [from, from+horizon): contiguous runs of centroid slots below
// PredictionThreshold, walking each day's most likely category across day
// boundaries. firstCat >= 0 pins the first day's category (today was
// live-matched to this centroid); -1 falls back to the weekday majority. An
// untrained pattern returns nil.
func (p Pattern) forecast(from time.Time, horizon time.Duration, firstCat int) []Window {
	if !p.Trained() || horizon <= 0 {
		return nil
	}
	from = from.UTC()
	end := from.Add(horizon)
	var out []Window
	var open *Window
	emit := func(w Window) {
		if end.Before(w.End) {
			w.End = end
		}
		if w.Start.Before(w.End) {
			out = append(out, w)
		}
	}
	first := true
	for day := midnight(from); day.Before(end); day = day.AddDate(0, 0, 1) {
		cat := p.LikelyCategory(day.Weekday())
		conf := p.weekdayConfidence(day.Weekday(), cat)
		if first && firstCat >= 0 && firstCat < len(p.Centroids) {
			cat = firstCat
			conf = p.weekdayConfidence(day.Weekday(), cat)
			if conf < MatchedCategoryConfidence {
				conf = MatchedCategoryConfidence
			}
		}
		if cat < 0 {
			first = false
			continue
		}
		cent := p.Centroids[cat]
		startSlot := 0
		if first {
			startSlot = int(from.Sub(day) / usage.Interval)
		}
		for s := startSlot; s < usage.SlotsPerDay; s++ {
			slotStart := day.Add(time.Duration(s) * usage.Interval)
			if !slotStart.Before(end) {
				break
			}
			if cent[s] < PredictionThreshold {
				if open == nil {
					st := slotStart
					if st.Before(from) {
						st = from
					}
					open = &Window{Start: st, End: slotStart.Add(usage.Interval), Confidence: conf}
				} else {
					open.End = slotStart.Add(usage.Interval)
					if conf < open.Confidence {
						open.Confidence = conf
					}
				}
			} else if open != nil {
				emit(*open)
				open = nil
			}
		}
		first = false
	}
	if open != nil {
		emit(*open)
	}
	return out
}

// weekdayConfidence returns the fraction of weekday-w training days
// assigned to category c (0 when the category is out of range or the
// weekday was never observed).
func (p Pattern) weekdayConfidence(w time.Weekday, c int) float64 {
	if c < 0 || int(w) < 0 || int(w) >= len(p.WeekdayCounts) {
		return 0
	}
	counts := p.WeekdayCounts[int(w)]
	if c >= len(counts) {
		return 0
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(counts[c]) / float64(total)
}

// Forecast converts the analyzer's trained pattern into availability
// windows covering [from, from+horizon), pinning the first day to the
// category matched against today's live observations when enough slots have
// been sampled (see matchTodayLocked). An untrained analyzer returns nil.
func (a *Analyzer) Forecast(from time.Time, horizon time.Duration) []Window {
	from = from.UTC()
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.pattern.Trained() {
		return nil
	}
	return a.pattern.forecast(from, horizon, a.matchTodayLocked(from))
}

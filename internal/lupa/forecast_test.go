package lupa

import (
	"testing"
	"time"

	"integrade/internal/usage"
)

func TestForecastUntrained(t *testing.T) {
	var p Pattern
	if got := p.forecast(monday, 24*time.Hour, -1); got != nil {
		t.Fatalf("untrained forecast = %v", got)
	}
	a := NewAnalyzer(1)
	if got := a.Forecast(monday, 24*time.Hour); got != nil {
		t.Fatalf("untrained analyzer forecast = %v", got)
	}
}

// scoreForecast trains an analyzer on 21 days of the profile's trace, then
// scores the next `horizon` of forecast windows against the trace's
// scheduled ground truth at slot granularity. Precision is the fraction of
// forecast-idle time that really is idle; recall is the fraction of true
// scheduled-idle time the forecast covered.
func scoreForecast(t *testing.T, profile usage.Profile, seed int64, horizon time.Duration) (precision, recall float64) {
	t.Helper()
	tr := usage.NewTrace(profile, seed)
	a := NewAnalyzer(seed)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	from := monday.AddDate(0, 0, 21)
	windows := a.Forecast(from, horizon)
	inWindow := func(at time.Time) bool {
		for _, w := range windows {
			if !at.Before(w.Start) && at.Before(w.End) {
				return true
			}
		}
		return false
	}
	var forecastIdle, truthIdle, hit float64
	for at := from; at.Before(from.Add(horizon)); at = at.Add(usage.Interval) {
		f := inWindow(at)
		truth := !tr.BaseBusyAt(at)
		if f {
			forecastIdle++
		}
		if truth {
			truthIdle++
		}
		if f && truth {
			hit++
		}
	}
	if forecastIdle == 0 || truthIdle == 0 {
		t.Fatalf("degenerate forecast: %v predicted idle slots, %v true idle slots", forecastIdle, truthIdle)
	}
	return hit / forecastIdle, hit / truthIdle
}

// Per-behavioural-category accuracy floors: the forecast must recover the
// scheduled idle structure of each built-in profile from noisy samples.
func TestForecastAccuracyOfficeWorker(t *testing.T) {
	precision, recall := scoreForecast(t, usage.OfficeWorker, 3, 48*time.Hour)
	if precision < 0.85 {
		t.Fatalf("office-worker precision = %.3f, want >= 0.85", precision)
	}
	if recall < 0.85 {
		t.Fatalf("office-worker recall = %.3f, want >= 0.85", recall)
	}
}

func TestForecastAccuracyNightOwl(t *testing.T) {
	precision, recall := scoreForecast(t, usage.NightOwl, 5, 48*time.Hour)
	if precision < 0.85 {
		t.Fatalf("night-owl precision = %.3f, want >= 0.85", precision)
	}
	if recall < 0.85 {
		t.Fatalf("night-owl recall = %.3f, want >= 0.85", recall)
	}
}

func TestForecastAccuracyMostlyIdle(t *testing.T) {
	// A mostly idle machine: nearly everything is available, so recall is
	// the interesting number — the forecast must not invent busy periods.
	_, recall := scoreForecast(t, usage.MostlyIdle, 7, 48*time.Hour)
	if recall < 0.9 {
		t.Fatalf("mostly-idle recall = %.3f, want >= 0.9", recall)
	}
}

func TestForecastWindowsOrderedAndBounded(t *testing.T) {
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	a := NewAnalyzer(3)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	from := monday.AddDate(0, 0, 21).Add(90 * time.Minute) // 01:30, mid-idle
	horizon := 24 * time.Hour
	windows := a.Forecast(from, horizon)
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	end := from.Add(horizon)
	for i, w := range windows {
		if !w.Start.Before(w.End) {
			t.Fatalf("window %d empty: [%v, %v]", i, w.Start, w.End)
		}
		if w.Start.Before(from) || end.Before(w.End) {
			t.Fatalf("window %d outside [%v, %v]: [%v, %v]", i, from, end, w.Start, w.End)
		}
		if w.Confidence <= 0 || w.Confidence > 1 {
			t.Fatalf("window %d confidence = %v", i, w.Confidence)
		}
		if i > 0 && windows[i].Start.Before(windows[i-1].End) {
			t.Fatalf("windows %d and %d overlap", i-1, i)
		}
	}
	// The first window starts at the query instant (we asked mid-idle-night).
	if !windows[0].Start.Equal(from) {
		t.Fatalf("first window starts %v, want %v", windows[0].Start, from)
	}
}

func TestForecastCrossesMidnight(t *testing.T) {
	// Friday evening through Saturday: the office worker's overnight idle
	// run must come back as one window spanning midnight, not split per day.
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	a := NewAnalyzer(3)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	friday := monday.AddDate(0, 0, 25).Add(19 * time.Hour)
	windows := a.Forecast(friday, 24*time.Hour)
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	first := windows[0]
	if !first.Start.Equal(friday) {
		t.Fatalf("first window starts %v, want %v", first.Start, friday)
	}
	if first.End.Sub(first.Start) < 12*time.Hour {
		t.Fatalf("Friday-evening window = %v, want an overnight span >= 12h", first.End.Sub(first.Start))
	}
}

func TestForecastUsesTodayObservations(t *testing.T) {
	// Train on the office worker, then observe an idle holiday morning on a
	// Wednesday: the first forecast day must follow the observed (idle)
	// category, with the live-match confidence floor applied.
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	a := NewAnalyzer(3)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	holiday := monday.AddDate(0, 0, 23) // a Wednesday
	for s := 0; s < 10*12; s++ {        // observe idle 00:00-10:00
		a.Record(holiday.Add(time.Duration(s)*usage.Interval), usage.Activity{CPU: 0.02})
	}
	at := holiday.Add(10 * time.Hour)
	windows := a.Forecast(at, 8*time.Hour)
	if len(windows) == 0 {
		t.Fatal("no windows despite observed idle morning")
	}
	w := windows[0]
	if !w.Start.Equal(at) || w.End.Sub(w.Start) < 2*time.Hour {
		t.Fatalf("holiday window = [%v, %v], want a long run from %v", w.Start, w.End, at)
	}
	if w.Confidence < MatchedCategoryConfidence {
		t.Fatalf("live-matched confidence = %v, want >= %v", w.Confidence, MatchedCategoryConfidence)
	}
	// The weekday-majority forecast (Pattern.Forecast, no live match) must
	// NOT hand out that window — Wednesdays are working days.
	blind := a.Pattern().forecast(at, 8*time.Hour, -1)
	if len(blind) > 0 && blind[0].Start.Equal(at) && blind[0].End.Sub(blind[0].Start) >= 2*time.Hour {
		t.Fatal("weekday-majority forecast also predicted an idle Wednesday morning; live match not exercised")
	}
}

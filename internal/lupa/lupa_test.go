package lupa

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"integrade/internal/sim"
	"integrade/internal/usage"
)

var monday = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := sim.NewRNG(1)
	var points [][]float64
	// Two tight blobs around (0,0) and (10,10).
	for i := 0; i < 20; i++ {
		points = append(points, []float64{rng.Normal(0, 0.1), rng.Normal(0, 0.1)})
		points = append(points, []float64{rng.Normal(10, 0.1), rng.Normal(10, 0.1)})
	}
	res, err := KMeans(points, 2, sim.NewRNG(2), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Every even index is blob A; all must share one label distinct from odd.
	a := res.Assignment[0]
	for i := 0; i < len(points); i += 2 {
		if res.Assignment[i] != a {
			t.Fatal("blob A split across clusters")
		}
	}
	for i := 1; i < len(points); i += 2 {
		if res.Assignment[i] == a {
			t.Fatal("blobs merged")
		}
	}
	if res.Distortion > 10 {
		t.Fatalf("distortion = %v", res.Distortion)
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := KMeans(nil, 1, rng, 10); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := KMeans([][]float64{{1}}, 0, rng, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans([][]float64{{1}, {2}}, 3, rng, 10); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := KMeans([][]float64{{1, 2}, {1}}, 1, rng, 10); err == nil {
		t.Fatal("ragged dimensions accepted")
	}
}

// Property: every point is assigned to its nearest centroid (Lloyd's
// optimality of the final assignment step).
func TestKMeansAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		n := 10 + rng.Intn(30)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		res, err := KMeans(points, 3, rng.Fork("km"), 100)
		if err != nil {
			return false
		}
		for i, p := range points {
			own := sqDist(p, res.Centroids[res.Assignment[i]])
			for _, c := range res.Centroids {
				if sqDist(p, c) < own-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: distortion with k+1 clusters (same seed family) never hugely
// exceeds distortion with k (sanity of the objective).
func TestKMeansDistortionNonIncreasingInK(t *testing.T) {
	rng := sim.NewRNG(7)
	points := make([][]float64, 60)
	for i := range points {
		points[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		// Best of 3 restarts to smooth seeding luck.
		best := math.Inf(1)
		for r := 0; r < 3; r++ {
			res, err := KMeans(points, k, sim.NewRNG(int64(k*100+r)), 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Distortion < best {
				best = res.Distortion
			}
		}
		if best > prev*1.05 {
			t.Fatalf("distortion increased at k=%d: %v -> %v", k, prev, best)
		}
		prev = best
	}
}

func TestSilhouettePrefersTrueK(t *testing.T) {
	rng := sim.NewRNG(3)
	var points [][]float64
	for _, center := range []float64{0, 10, 20} {
		for i := 0; i < 15; i++ {
			points = append(points, []float64{rng.Normal(center, 0.3)})
		}
	}
	res, k, err := AutoK(points, 6, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("AutoK = %d, want 3", k)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
}

func TestAutoKSingleBehaviour(t *testing.T) {
	// A single isotropic blob in a few dimensions: silhouette of any split
	// stays low, so AutoK must report one behavioural category. (In 1-D a
	// halved gaussian genuinely silhouettes near 0.55 — a known limitation —
	// but LUPA's day vectors are 288-dimensional, where splits score low.)
	rng := sim.NewRNG(5)
	points := make([][]float64, 30)
	for i := range points {
		points[i] = []float64{rng.Normal(5, 0.2), rng.Normal(5, 0.2), rng.Normal(5, 0.2)}
	}
	_, k, err := AutoK(points, 5, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("AutoK on one blob = %d, want 1", k)
	}
}

// feed records a trace into an analyzer every 5 minutes over the given days.
func feed(a *Analyzer, tr *usage.Trace, start time.Time, days int) {
	for d := 0; d < days; d++ {
		day := start.AddDate(0, 0, d)
		for s := 0; s < usage.SlotsPerDay; s++ {
			at := day.Add(time.Duration(s) * usage.Interval)
			a.Record(at, tr.At(at))
		}
	}
	// Push one sample of the next day so the last full day finalizes.
	a.Record(start.AddDate(0, 0, days), tr.At(start.AddDate(0, 0, days)))
}

func TestAnalyzerCollectsDays(t *testing.T) {
	a := NewAnalyzer(1)
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	feed(a, tr, monday, 3)
	if got := a.Days(); got != 3 {
		t.Fatalf("Days = %d, want 3", got)
	}
	if err := a.Retrain(); err == nil {
		t.Fatal("Retrain with 3 days succeeded, want error (needs 7)")
	}
}

func TestAnalyzerDiscoverWeekdayWeekendCategories(t *testing.T) {
	a := NewAnalyzer(1, WithMaxCategories(4))
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	feed(a, tr, monday, 21) // three full weeks
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	p := a.Pattern()
	if !p.Trained() {
		t.Fatal("untrained after Retrain")
	}
	if p.Categories() < 2 {
		t.Fatalf("categories = %d, want >= 2 (work days vs weekends)", p.Categories())
	}
	// Saturday's likely category must differ from Wednesday's.
	sat := p.LikelyCategory(time.Saturday)
	wed := p.LikelyCategory(time.Wednesday)
	if sat == wed {
		t.Fatalf("Saturday and Wednesday share category %d", sat)
	}
	// The weekday category must look busy during office hours.
	workCentroid := p.Centroids[wed]
	slot11 := 11 * 12 // 11:00
	if workCentroid[slot11] < PredictionThreshold {
		t.Fatalf("weekday centroid at 11:00 = %v, want busy", workCentroid[slot11])
	}
	// The weekend category must be idle at 11:00 (bursts average below the
	// prediction threshold).
	if p.Centroids[sat][slot11] >= PredictionThreshold {
		t.Fatalf("weekend centroid at 11:00 = %v, want idle", p.Centroids[sat][slot11])
	}
}

func TestPredictIdleOfficeEvening(t *testing.T) {
	a := NewAnalyzer(1)
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	// Friday 19:00: the owner has left; prediction should see a long idle
	// span (overnight, and since Saturday is idle, well past midnight).
	friday := monday.AddDate(0, 0, 4).Add(19 * time.Hour)
	span, ok := a.PredictIdle(friday)
	if !ok {
		t.Fatal("untrained")
	}
	if span < 8*time.Hour {
		t.Fatalf("Friday-evening idle prediction = %v, want >= 8h", span)
	}
	// Wednesday 08:00: work starts at 09:00, prediction must be short.
	wednesday := monday.AddDate(0, 0, 2).Add(8 * time.Hour)
	span, ok = a.PredictIdle(wednesday)
	if !ok {
		t.Fatal("untrained")
	}
	if span > 3*time.Hour {
		t.Fatalf("Wednesday-08:00 idle prediction = %v, want short", span)
	}
}

func TestPredictIdleUntrained(t *testing.T) {
	a := NewAnalyzer(1)
	if _, ok := a.PredictIdle(monday); ok {
		t.Fatal("untrained analyzer predicted")
	}
}

func TestPredictMatchesLocalSemantics(t *testing.T) {
	// A pattern's prediction is the weekday prior: the weekday's likely
	// category from t's slot, continued into the next weekday's when it is
	// idle to midnight.
	a := NewAnalyzer(3)
	feed(a, usage.NewTrace(usage.OfficeWorker, 3), monday, 14)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	p := a.Pattern()
	at := monday.AddDate(0, 0, 8).Add(22 * time.Hour) // Tuesday 22:00
	span, ok := p.PredictIdle(at)
	if !ok {
		t.Fatal("no prediction")
	}
	slot := 22 * 12
	want := p.IdleSpanFrom(p.LikelyCategory(time.Tuesday), slot)
	if want == time.Duration(usage.SlotsPerDay-slot)*usage.Interval {
		want += p.IdleSpanFrom(p.LikelyCategory(time.Wednesday), 0)
	}
	if span != want {
		t.Fatalf("PredictIdle = %v, want %v", span, want)
	}
	if _, ok := (Pattern{}).PredictIdle(at); ok {
		t.Fatal("untrained pattern predicted")
	}
}

func TestPatternPredictMatchesAnalyzerWithoutLiveMatch(t *testing.T) {
	// With fewer than 3 slots observed today the analyzer has no live match,
	// so its prediction is the pattern's weekday prior, every hour of a week.
	a := NewAnalyzer(3)
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	feed(a, tr, monday, 14) // also observes day 14's first slot
	today := monday.AddDate(0, 0, 14)
	a.Record(today.Add(usage.Interval), tr.At(today.Add(usage.Interval)))
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	p := a.Pattern()
	for h := 0; h < 7*24; h++ {
		at := today.Add(time.Duration(h) * time.Hour)
		got, gotOK := p.PredictIdle(at)
		want, wantOK := a.PredictIdle(at)
		if got != want || gotOK != wantOK {
			t.Fatalf("%v: Pattern.PredictIdle = %v, %v; Analyzer.PredictIdle = %v, %v",
				at, got, gotOK, want, wantOK)
		}
	}
}

func TestPredictUsesTodayObservations(t *testing.T) {
	// Train on office worker; then feed a holiday (idle all morning) as
	// today. Prediction at 10:00 should match an idle category even though
	// it's a Wednesday.
	a := NewAnalyzer(1)
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	holiday := monday.AddDate(0, 0, 23) // a Wednesday
	for s := 0; s < 10*12; s++ {        // observe idle 00:00-10:00
		a.Record(holiday.Add(time.Duration(s)*usage.Interval), usage.Activity{CPU: 0.02})
	}
	span, ok := a.PredictIdle(holiday.Add(10 * time.Hour))
	if !ok {
		t.Fatal("untrained")
	}
	if span < 2*time.Hour {
		t.Fatalf("holiday prediction = %v, want long despite weekday", span)
	}
}

func TestPatternSummaries(t *testing.T) {
	a := NewAnalyzer(1)
	tr := usage.NewTrace(usage.OfficeWorker, 3)
	feed(a, tr, monday, 14)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	sums := a.Pattern().Summaries()
	if len(sums) == 0 {
		t.Fatal("no summaries")
	}
	totalDays := 0
	for _, s := range sums {
		totalDays += s.Days
		if s.BusyHours < 0 || s.BusyHours > 24 {
			t.Fatalf("BusyHours = %v", s.BusyHours)
		}
	}
	if totalDays != 14 {
		t.Fatalf("summaries cover %d days, want 14", totalDays)
	}
}

func TestPatternCloneIsolation(t *testing.T) {
	a := NewAnalyzer(1)
	tr := usage.NewTrace(usage.MostlyIdle, 3)
	feed(a, tr, monday, 8)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	p := a.Pattern()
	if !p.Trained() {
		t.Fatal("untrained")
	}
	p.Centroids[0][0] = 99
	if a.Pattern().Centroids[0][0] == 99 {
		t.Fatal("Pattern() leaked internal centroid storage")
	}
}

func TestIdleSpanFromBounds(t *testing.T) {
	p := Pattern{Centroids: [][]float64{make([]float64, usage.SlotsPerDay)}}
	if got := p.IdleSpanFrom(-1, 0); got != 0 {
		t.Fatalf("bad category span = %v", got)
	}
	if got := p.IdleSpanFrom(0, 0); got != 24*time.Hour {
		t.Fatalf("all-idle span = %v, want 24h", got)
	}
}

func TestSparseSamplingStillTrains(t *testing.T) {
	// Sample every 10 minutes (half the slots): carry-forward fills gaps
	// and the day still counts.
	a := NewAnalyzer(2)
	tr := usage.NewTrace(usage.OfficeWorker, 9)
	for d := 0; d < 8; d++ {
		day := monday.AddDate(0, 0, d)
		for s := 0; s < usage.SlotsPerDay; s += 2 {
			at := day.Add(time.Duration(s) * usage.Interval)
			a.Record(at, tr.At(at))
		}
	}
	a.Record(monday.AddDate(0, 0, 8), usage.Activity{})
	if a.Days() != 8 {
		t.Fatalf("Days = %d, want 8", a.Days())
	}
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
}

func TestHolidayDayPredictedIdleFromObservations(t *testing.T) {
	// Train on the holiday-taking office profile; on a holiday Wednesday,
	// the morning's idle observations must steer the prediction to an idle
	// category even though Wednesdays are usually workdays.
	tr := usage.NewTrace(usage.OfficeWithHolidays, 4)
	a := NewAnalyzer(4)
	feed(a, tr, monday, 21)
	if err := a.Retrain(); err != nil {
		t.Fatal(err)
	}
	// Find a weekday holiday after the training window.
	var holiday time.Time
	for d := 21; d < 60; d++ {
		day := monday.AddDate(0, 0, d)
		wd := day.Weekday()
		if wd != time.Saturday && wd != time.Sunday && tr.IsHoliday(day) {
			holiday = day
			break
		}
	}
	if holiday.IsZero() {
		t.Fatal("no weekday holiday found in the probe window")
	}
	// Observe the (idle) holiday morning.
	for s := 0; s < 10*12; s++ {
		at := holiday.Add(time.Duration(s) * usage.Interval)
		a.Record(at, tr.At(at))
	}
	span, ok := a.PredictIdle(holiday.Add(10 * time.Hour))
	if !ok {
		t.Fatal("untrained")
	}
	if span < 2*time.Hour {
		t.Fatalf("holiday 10:00 prediction = %v, want long idle span", span)
	}
}

package lupa

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"integrade/internal/sim"
	"integrade/internal/usage"
)

// Pattern is the trained usage model a LUPA retrains daily: behavioural
// categories (cluster centroids over the day's 5-minute slots) plus, per
// weekday, how often each category occurred. The node's LRM turns it into the
// idle prediction and availability windows each Information Update carries.
type Pattern struct {
	// Centroids are per-category day vectors (usage.SlotsPerDay long).
	Centroids [][]float64
	// WeekdayCounts[w][c] counts days of weekday w assigned to category c.
	WeekdayCounts [7][]int
	// Days is the number of complete days the model was trained on.
	Days int
}

// Trained reports whether the pattern contains a usable model.
func (p Pattern) Trained() bool { return len(p.Centroids) > 0 }

// Categories returns the number of behavioural categories.
func (p Pattern) Categories() int { return len(p.Centroids) }

// LikelyCategory returns the most frequent category for a weekday, or -1 if
// untrained.
func (p Pattern) LikelyCategory(w time.Weekday) int {
	if !p.Trained() {
		return -1
	}
	counts := p.WeekdayCounts[int(w)]
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// PredictionThreshold is the centroid level above which a slot counts as
// busy when predicting. A centroid is a mean over the category's days, so a
// slot at 0.15 means "occasionally busy" (e.g. a surprise burst in 1 of 7
// days), which should not truncate an idle-span prediction; consistent work
// activity sits near 0.5.
const PredictionThreshold = 0.30

// IdleSpanFrom returns how long the category's centroid stays below
// PredictionThreshold starting at the given slot, capped at the end of the
// day.
func (p Pattern) IdleSpanFrom(category, slot int) time.Duration {
	if category < 0 || category >= len(p.Centroids) {
		return 0
	}
	c := p.Centroids[category]
	var span time.Duration
	for s := slot; s < len(c); s++ {
		if c[s] >= PredictionThreshold {
			break
		}
		span += usage.Interval
	}
	return span
}

// PredictIdle estimates how long the machine stays idle from t using the
// weekday prior alone: the weekday's most likely category, scanned forward
// from t's slot and, if it stays idle to midnight, continued into the next
// weekday's likely category. An untrained pattern returns (0, false).
func (p Pattern) PredictIdle(t time.Time) (time.Duration, bool) {
	return p.predictIdle(t.UTC(), -1)
}

// predictIdle is PredictIdle with t's day pinned to a category (firstCat >= 0
// means "today was live-matched to this centroid"; -1 falls back to the
// weekday majority). t is in UTC.
func (p Pattern) predictIdle(t time.Time, firstCat int) (time.Duration, bool) {
	if !p.Trained() {
		return 0, false
	}
	slot := int(t.Sub(midnight(t)) / usage.Interval)
	cat := firstCat
	if cat < 0 {
		cat = p.LikelyCategory(t.Weekday())
	}
	span := p.IdleSpanFrom(cat, slot)
	// Idle through midnight: extend into tomorrow's likely category.
	if span == time.Duration(usage.SlotsPerDay-slot)*usage.Interval {
		next := p.LikelyCategory(t.AddDate(0, 0, 1).Weekday())
		span += p.IdleSpanFrom(next, 0)
	}
	return span, true
}

// Analyzer is the per-node LUPA. Feed it 5-minute samples with Record; after
// enough complete days, Retrain builds the pattern; PredictIdle answers the
// scheduler's question "how long will this machine stay idle?".
//
// It is safe for concurrent use.
type Analyzer struct {
	rng  *sim.RNG
	kmax int

	// mu guards days, dayStarts, today, todayFill, todayStart and pattern.
	mu         sync.Mutex
	days       [][]float64 // completed day vectors
	dayStarts  []time.Time // date of each completed day (parallel to days)
	today      []float64
	todayFill  []bool
	todayStart time.Time
	pattern    Pattern
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// withMaxCategories bounds the number of behavioural categories AutoK may
// choose (default 6).
func withMaxCategories(k int) Option {
	return func(a *Analyzer) { a.kmax = k }
}

// NewAnalyzer returns an Analyzer seeded deterministically.
func NewAnalyzer(seed int64, opts ...Option) *Analyzer {
	a := &Analyzer{
		rng:  sim.NewRNG(seed),
		kmax: 6,
	}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// Record stores one owner-CPU sample. Samples may arrive at any cadence; the
// analyzer buckets them into 5-minute slots of the current day and finalizes
// a day vector when a sample for a later day arrives.
func (a *Analyzer) Record(t time.Time, act usage.Activity) {
	t = t.UTC()
	a.mu.Lock()
	defer a.mu.Unlock()
	day := midnight(t)
	if a.today == nil || !day.Equal(a.todayStart) {
		a.finalizeTodayLocked()
		a.today = make([]float64, usage.SlotsPerDay)
		a.todayFill = make([]bool, usage.SlotsPerDay)
		a.todayStart = day
	}
	slot := int(t.Sub(day) / usage.Interval)
	if slot < 0 || slot >= usage.SlotsPerDay {
		return
	}
	a.today[slot] = act.CPU
	a.todayFill[slot] = true
}

// finalizeTodayLocked pushes the in-progress day into history, filling
// unsampled slots by carrying the previous sampled value forward.
func (a *Analyzer) finalizeTodayLocked() {
	if a.today == nil {
		return
	}
	last := 0.0
	sampled := 0
	for i := range a.today {
		if a.todayFill[i] {
			last = a.today[i]
			sampled++
		} else {
			a.today[i] = last
		}
	}
	// Require at least half the day sampled to count it as training data.
	if sampled >= usage.SlotsPerDay/2 {
		vec := append([]float64(nil), a.today...)
		a.days = append(a.days, vec)
		a.dayStarts = append(a.dayStarts, a.todayStart)
	}
	a.today = nil
	a.todayFill = nil
}

// Days returns the number of complete training days collected.
func (a *Analyzer) Days() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.days)
}

// Retrain clusters the collected day vectors into behavioural categories.
// It needs at least MinTrainingDays complete days.
func (a *Analyzer) Retrain() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.days) < MinTrainingDays {
		return fmt.Errorf("lupa: %d training days, need %d", len(a.days), MinTrainingDays)
	}
	res, _, err := AutoK(a.days, a.kmax, a.rng.Fork("retrain"))
	if err != nil {
		return err
	}
	p := Pattern{Centroids: res.Centroids, Days: len(a.days)}
	for w := range p.WeekdayCounts {
		p.WeekdayCounts[w] = make([]int, len(res.Centroids))
	}
	for i, c := range res.Assignment {
		w := int(a.dayStarts[i].Weekday())
		p.WeekdayCounts[w][c]++
	}
	a.pattern = p
	return nil
}

// MinTrainingDays is the minimum history before Retrain succeeds.
const MinTrainingDays = 7

// Pattern returns the current trained pattern (zero value if untrained).
func (a *Analyzer) Pattern() Pattern {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pattern.clone()
}

// PredictIdle estimates how long the machine will remain idle from t
// onwards, combining today's partial observations with the trained
// categories:
//
//  1. match today's observed slots against each centroid (least squared
//     error over observed slots);
//  2. if nothing is observed yet, fall back to the weekday's most likely
//     category;
//  3. scan the chosen centroid forward from the current slot; if it stays
//     idle to midnight, continue into the next weekday's likely category.
//
// An untrained analyzer returns (0, false).
func (a *Analyzer) PredictIdle(t time.Time) (time.Duration, bool) {
	t = t.UTC()
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.pattern.Trained() {
		return 0, false
	}
	return a.pattern.predictIdle(t, a.matchTodayLocked(t))
}

// matchTodayLocked picks the centroid closest to today's observed prefix, or
// -1 when fewer than 3 slots are observed.
func (a *Analyzer) matchTodayLocked(t time.Time) int {
	if a.today == nil || !midnight(t).Equal(a.todayStart) {
		return -1
	}
	observed := 0
	for _, f := range a.todayFill {
		if f {
			observed++
		}
	}
	if observed < 3 {
		return -1
	}
	best, bestD := -1, math.Inf(1)
	for c, cent := range a.pattern.Centroids {
		var d float64
		for s := range a.today {
			if !a.todayFill[s] {
				continue
			}
			diff := a.today[s] - cent[s]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// CategorySummary describes one discovered category for operator display.
type CategorySummary struct {
	Category  int
	Days      int
	BusyHours float64 // hours per day the centroid is above the threshold
	Peak      float64 // centroid maximum
}

// Summaries describes all categories, sorted by category index.
func (p Pattern) Summaries() []CategorySummary {
	out := make([]CategorySummary, 0, len(p.Centroids))
	for c, cent := range p.Centroids {
		var busySlots int
		peak := 0.0
		for _, v := range cent {
			if v >= PredictionThreshold {
				busySlots++
			}
			if v > peak {
				peak = v
			}
		}
		days := 0
		for w := range p.WeekdayCounts {
			if c < len(p.WeekdayCounts[w]) {
				days += p.WeekdayCounts[w][c]
			}
		}
		out = append(out, CategorySummary{
			Category:  c,
			Days:      days,
			BusyHours: float64(busySlots) * usage.Interval.Hours(),
			Peak:      peak,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

func (p Pattern) clone() Pattern {
	c := Pattern{Days: p.Days}
	c.Centroids = make([][]float64, len(p.Centroids))
	for i, cent := range p.Centroids {
		c.Centroids[i] = append([]float64(nil), cent...)
	}
	for w := range p.WeekdayCounts {
		c.WeekdayCounts[w] = append([]int(nil), p.WeekdayCounts[w]...)
	}
	return c
}

func midnight(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}

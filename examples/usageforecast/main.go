// Usageforecast: the LUPA pipeline in isolation. Three weeks of
// 5-minute usage samples from an office workstation are clustered into
// behavioural categories ("working periods", "nights/weekends", …), and the
// trained pattern then predicts idle spans against the generator's ground
// truth — the mechanism the GRM's usage-aware policy relies on.
package main

import (
	"fmt"
	"log"
	"time"

	"integrade/internal/lupa"
	"integrade/internal/usage"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	trace := usage.NewTrace(usage.OfficeWorker, 42)
	analyzer := lupa.NewAnalyzer(42)
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC) // a Monday

	// Three weeks of 5-minute sampling, as the paper's LUPA collects.
	const days = 21
	for d := 0; d < days; d++ {
		day := start.AddDate(0, 0, d)
		for s := 0; s < usage.SlotsPerDay; s++ {
			at := day.Add(time.Duration(s) * usage.Interval)
			analyzer.Record(at, trace.At(at))
		}
	}
	analyzer.Record(start.AddDate(0, 0, days), usage.Activity{})
	if err := analyzer.Retrain(); err != nil {
		return err
	}
	pattern := analyzer.Pattern()
	fmt.Printf("trained on %d days; discovered %d behavioural categories:\n",
		pattern.Days, pattern.Categories())
	for _, s := range pattern.Summaries() {
		fmt.Printf("  category %d: %2d days, busy %4.1f h/day, peak owner CPU %.2f\n",
			s.Category, s.Days, s.BusyHours, s.Peak)
	}
	fmt.Println("\nlikely category per weekday:")
	for wd := time.Sunday; wd <= time.Saturday; wd++ {
		fmt.Printf("  %-9s -> category %d\n", wd, pattern.LikelyCategory(wd))
	}

	fmt.Println("\nidle-span prediction vs ground truth (week 4):")
	fmt.Printf("  %-22s %12s %12s\n", "instant", "predicted", "actual")
	probes := []struct {
		day  int // days after start
		hour int
		name string
	}{
		{21, 7, "Monday 07:00"},
		{21, 12, "Monday 12:00 (lunch)"},
		{21, 19, "Monday 19:00"},
		{25, 19, "Friday 19:00"},
		{26, 11, "Saturday 11:00"},
	}
	var absErr time.Duration
	n := 0
	for _, p := range probes {
		at := start.AddDate(0, 0, p.day).Add(time.Duration(p.hour) * time.Hour)
		predicted, ok := pattern.PredictIdle(at)
		if !ok {
			return fmt.Errorf("no prediction at %v", at)
		}
		actual := trace.IdleUntil(at, 24*time.Hour)
		fmt.Printf("  %-22s %12s %12s\n", p.name,
			predicted.Round(time.Minute), actual.Round(time.Minute))
		diff := predicted - actual
		if diff < 0 {
			diff = -diff
		}
		absErr += diff
		n++
	}
	fmt.Printf("\nmean absolute error over probes: %s\n", (absErr / time.Duration(n)).Round(time.Minute))
	fmt.Println("(bursty surprises are inherently unpredictable; the pattern captures the schedule)")
	return nil
}

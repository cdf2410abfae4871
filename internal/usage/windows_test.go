package usage

import (
	"testing"
	"time"
)

func TestIdleAndBusyWindowsPartitionTheHorizon(t *testing.T) {
	tr := NewTrace(OfficeWorker, 3)
	from := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC) // a Monday
	horizon := 48 * time.Hour
	idle := tr.idleWindows(from, horizon)
	busy := tr.BusyWindows(from, horizon)
	if len(idle) == 0 || len(busy) == 0 {
		t.Fatalf("idle=%d busy=%d windows, want both non-empty", len(idle), len(busy))
	}
	var covered time.Duration
	for _, s := range append(append([]Span(nil), idle...), busy...) {
		if !s.Start.Before(s.End) {
			t.Fatalf("empty span [%v, %v]", s.Start, s.End)
		}
		covered += s.End.Sub(s.Start)
	}
	if covered != horizon {
		t.Fatalf("idle+busy cover %v, want %v", covered, horizon)
	}
}

func TestBusyWindowsMatchOfficeSchedule(t *testing.T) {
	tr := NewTrace(OfficeWorker, 3)
	monday := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	busy := tr.BusyWindows(monday, 24*time.Hour)
	// The office worker works 9-12 and 13-18 on weekdays: exactly two busy
	// spans, at those hours (the scheduled base signal has no noise).
	if len(busy) != 2 {
		t.Fatalf("busy windows = %d (%v), want 2", len(busy), busy)
	}
	wantStarts := []int{9, 13}
	wantEnds := []int{12, 18}
	for i, s := range busy {
		if s.Start.Hour() != wantStarts[i] || s.End.Hour() != wantEnds[i] {
			t.Fatalf("busy[%d] = [%v, %v], want %02d:00-%02d:00",
				i, s.Start, s.End, wantStarts[i], wantEnds[i])
		}
	}
}

func TestBaseBusyAtIgnoresNoiseAndBursts(t *testing.T) {
	tr := NewTrace(MostlyIdle, 42)
	monday := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	// The mostly-idle profile's scheduled signal never crosses the busy
	// threshold; only stochastic bursts do. The ground-truth view must stay
	// idle across a long probe even where At() reports bursts.
	for i := 0; i < 7*SlotsPerDay; i++ {
		at := monday.Add(time.Duration(i) * Interval)
		if tr.BaseBusyAt(at) {
			t.Fatalf("BaseBusyAt(%v) busy on a mostly-idle schedule", at)
		}
	}
}

func TestWindowsDegenerateInputs(t *testing.T) {
	tr := NewTrace(OfficeWorker, 1)
	from := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	if got := tr.idleWindows(from, 0); got != nil {
		t.Fatalf("zero horizon = %v", got)
	}
	if got := tr.BusyWindows(from, -time.Hour); got != nil {
		t.Fatalf("negative horizon = %v", got)
	}
	// A horizon shorter than one slot still reports the slot truncated.
	idle := tr.idleWindows(from, time.Minute)
	if len(idle) != 1 || idle[0].End.Sub(idle[0].Start) != time.Minute {
		t.Fatalf("sub-slot horizon = %v", idle)
	}
}

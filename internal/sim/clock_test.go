package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockStartsAtEpoch(t *testing.T) {
	c := NewVirtualClock()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
	if Epoch.Weekday() != time.Monday {
		t.Fatalf("Epoch weekday = %v, want Monday", Epoch.Weekday())
	}
}

func TestVirtualClockAfterFuncOrdering(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	c.AfterFunc(3*time.Second, func() { got = append(got, 3) })
	c.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	c.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	if n := c.run(); n != 3 {
		t.Fatalf("run() = %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
}

func TestVirtualClockFIFOTieBreak(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	c.run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	fired := 0
	c.AfterFunc(10*time.Second, func() { fired++ })
	c.AfterFunc(20*time.Second, func() { fired++ })

	if n := c.Advance(15 * time.Second); n != 1 {
		t.Fatalf("Advance(15s) executed %d events, want 1", n)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if got, want := c.Now(), Epoch.Add(15*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	c.Advance(10 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d after second advance, want 2", fired)
	}
}

func TestVirtualClockTimeAdvancesToEventInstant(t *testing.T) {
	c := NewVirtualClock()
	var at time.Time
	c.AfterFunc(42*time.Second, func() { at = c.Now() })
	c.run()
	if want := Epoch.Add(42 * time.Second); !at.Equal(want) {
		t.Fatalf("callback saw Now() = %v, want %v", at, want)
	}
}

func TestVirtualClockTimerStop(t *testing.T) {
	c := NewVirtualClock()
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true before firing")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if c.pending() != 0 {
		t.Fatalf("pending() = %d, want 0", c.pending())
	}
}

func TestVirtualClockStopAfterFire(t *testing.T) {
	c := NewVirtualClock()
	tm := c.AfterFunc(time.Second, func() {})
	c.run()
	if tm.Stop() {
		t.Fatal("Stop() after firing = true, want false")
	}
}

// TestTimerSlotKeepsOneArmed: setting a slot stops the timer it held, and
// stopping it cancels the one it holds.
func TestTimerSlotKeepsOneArmed(t *testing.T) {
	c := NewVirtualClock()
	var fired []int
	var s TimerSlot
	s.Set(c.AfterFunc(time.Second, func() { fired = append(fired, 1) }))
	s.Set(c.AfterFunc(time.Second, func() { fired = append(fired, 2) }))
	c.Advance(time.Second)
	s.Set(c.AfterFunc(time.Second, func() { fired = append(fired, 3) }))
	s.Stop()
	c.Advance(time.Minute)
	if len(fired) != 1 || fired[0] != 2 || c.pending() != 0 {
		t.Fatalf("fired %v with %d timers pending, want only the second and none", fired, c.pending())
	}
}

func TestVirtualClockAfterChannel(t *testing.T) {
	c := NewVirtualClock()
	ch := c.After(5 * time.Second)
	select {
	case <-ch:
		t.Fatal("After channel delivered before time advanced")
	default:
	}
	c.Advance(5 * time.Second)
	select {
	case got := <-ch:
		if want := Epoch.Add(5 * time.Second); !got.Equal(want) {
			t.Fatalf("After delivered %v, want %v", got, want)
		}
	default:
		t.Fatal("After channel empty after advancing")
	}
}

func TestVirtualClockSleepWakesOnAdvance(t *testing.T) {
	c := NewVirtualClock()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(time.Minute)
		close(done)
	}()
	// Let the sleeper register its event.
	for c.pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not wake after Advance")
	}
	wg.Wait()
}

func TestVirtualClockPeriodicReschedule(t *testing.T) {
	c := NewVirtualClock()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		c.AfterFunc(time.Minute, tick)
	}
	c.AfterFunc(time.Minute, tick)
	c.Advance(time.Hour)
	if ticks != 60 {
		t.Fatalf("ticks = %d over one hour, want 60", ticks)
	}
}

func TestVirtualClockNegativeDelayFiresImmediately(t *testing.T) {
	c := NewVirtualClock()
	fired := false
	c.AfterFunc(-time.Second, func() { fired = true })
	c.Step()
	if !fired {
		t.Fatal("negative-delay event did not fire on Step")
	}
	if !c.Now().Equal(Epoch) {
		t.Fatalf("time moved backwards: %v", c.Now())
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = RealClock{}
	before := time.Now()
	if c.Now().Before(before.Add(-time.Second)) {
		t.Fatal("RealClock.Now() far in the past")
	}
	fired := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("RealClock.AfterFunc never fired")
	}
	tm.Stop()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	base := NewRNG(7)
	f1 := base.Fork("alpha")
	base2 := NewRNG(7)
	f2 := base2.Fork("alpha")
	for i := 0; i < 10; i++ {
		if f1.Int63() != f2.Int63() {
			t.Fatal("Fork with same label not deterministic")
		}
	}
	g1 := NewRNG(7).Fork("alpha")
	g2 := NewRNG(7).Fork("beta")
	same := true
	for i := 0; i < 10; i++ {
		if g1.Int63() != g2.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("differently-labelled forks produced identical streams")
	}
}

func TestRNGBoolExtremes(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// Property: for any set of delays, Run executes events in non-decreasing
// time order and ends with the clock at the max delay.
func TestVirtualClockOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewVirtualClock()
		var fireTimes []time.Time
		var maxAt time.Time = Epoch
		for _, d := range delays {
			dur := time.Duration(d) * time.Millisecond
			at := Epoch.Add(dur)
			if at.After(maxAt) {
				maxAt = at
			}
			c.AfterFunc(dur, func() { fireTimes = append(fireTimes, c.Now()) })
		}
		c.run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i].Before(fireTimes[i-1]) {
				return false
			}
		}
		return c.Now().Equal(maxAt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPick(t *testing.T) {
	g := NewRNG(3)
	xs := []string{"a", "b", "c"}
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		seen[Pick(g, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick over 100 draws saw %d distinct values, want 3", len(seen))
	}
}

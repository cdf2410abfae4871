package resource

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func vec(mips, ram, disk, net float64) Vector {
	return Vector{MIPS: mips, RAMMB: ram, DiskMB: disk, NetMbps: net}
}

func TestVectorAlgebra(t *testing.T) {
	a := vec(1000, 512, 100, 10)
	b := vec(500, 256, 50, 5)
	if got := a.Add(b); got != vec(1500, 768, 150, 15) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != b {
		t.Fatalf("Sub = %v, want %v", got, b)
	}
	if got := a.Scale(2); got != vec(2000, 1024, 200, 20) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestVectorFits(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want bool
	}{
		{"equal", vec(1, 1, 1, 1), vec(1, 1, 1, 1), true},
		{"smaller", vec(1, 1, 1, 1), vec(2, 2, 2, 2), true},
		{"one dim exceeds", vec(3, 1, 1, 1), vec(2, 2, 2, 2), false},
		{"zero fits anything", Vector{}, vec(0, 0, 0, 0), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Fits(tt.w); got != tt.want {
				t.Fatalf("Fits = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorClampAndMax(t *testing.T) {
	v := vec(-1, 2, -3, 4)
	if got := v.Clamp(); got != vec(0, 2, 0, 4) {
		t.Fatalf("Clamp = %v", got)
	}
	if got := vec(1, 5, 1, 5).max(vec(5, 1, 5, 1)); got != vec(5, 5, 5, 5) {
		t.Fatalf("Max = %v", got)
	}
}

// Property: (a+b)-b == a for vectors built from small non-negative ints.
func TestVectorAddSubRoundTrip(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 uint8) bool {
		a := vec(float64(a1), float64(a2), float64(a3), float64(a4))
		b := vec(float64(b1), float64(b2), float64(b3), float64(b4))
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Fits is a partial order: reflexive and transitive.
func TestVectorFitsTransitive(t *testing.T) {
	f := func(a1, b1, c1 uint8) bool {
		a := vec(float64(a1), 1, 1, 1)
		b := vec(float64(b1), 1, 1, 1)
		c := vec(float64(c1), 1, 1, 1)
		if !a.Fits(a) {
			return false
		}
		if a.Fits(b) && b.Fits(c) && !a.Fits(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMachineSpecValidate(t *testing.T) {
	good := MachineSpec{
		Platform: Platform{Arch: "amd64", OS: "linux"},
		Capacity: vec(1000, 512, 1000, 100),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*MachineSpec)
	}{
		{"zero mips", func(m *MachineSpec) { m.Capacity.MIPS = 0 }},
		{"zero ram", func(m *MachineSpec) { m.Capacity.RAMMB = 0 }},
		{"negative disk", func(m *MachineSpec) { m.Capacity.DiskMB = -1 }},
		{"negative net", func(m *MachineSpec) { m.Capacity.NetMbps = -1 }},
		{"no arch", func(m *MachineSpec) { m.Platform.Arch = "" }},
		{"no os", func(m *MachineSpec) { m.Platform.OS = "" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := good
			tt.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate accepted invalid spec")
			}
		})
	}
}

func TestRequirementsSatisfiedBy(t *testing.T) {
	linux := Platform{Arch: "amd64", OS: "linux"}
	windows := Platform{Arch: "amd64", OS: "windows"}
	spec := MachineSpec{Platform: linux, Capacity: vec(1000, 512, 100, 10)}

	r := Requirements{Min: vec(500, 16, 0, 0)}
	if !r.satisfiedBy(spec, vec(600, 128, 50, 5)) {
		t.Fatal("requirements should be satisfied")
	}
	if r.satisfiedBy(spec, vec(400, 128, 50, 5)) {
		t.Fatal("insufficient MIPS accepted")
	}
	r.Platform = &windows
	if r.satisfiedBy(spec, vec(600, 128, 50, 5)) {
		t.Fatal("platform mismatch accepted")
	}
	r.Platform = &linux
	if !r.satisfiedBy(spec, vec(600, 128, 50, 5)) {
		t.Fatal("matching platform rejected")
	}
}

func TestPreferencesScore(t *testing.T) {
	p := Preferences{FasterCPU: true}
	fast := p.score(vec(2000, 0, 0, 0), 0)
	slow := p.score(vec(500, 0, 0, 0), 0)
	if fast <= slow {
		t.Fatalf("FasterCPU: fast %v <= slow %v", fast, slow)
	}
	p = Preferences{StayIdleWeight: 1}
	idle := p.score(Vector{}, 8)
	busySoon := p.score(Vector{}, 0.2)
	if idle <= busySoon {
		t.Fatalf("StayIdleWeight: idle %v <= busySoon %v", idle, busySoon)
	}
	if (Preferences{}).score(vec(9999, 9999, 9999, 9999), 99) != 0 {
		t.Fatal("empty preferences should score 0")
	}
}

func TestLedgerReserveCommitRelease(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(vec(1000, 512, 100, 10))

	res, err := l.Reserve(vec(600, 256, 10, 1), "app-1", now, now.Add(time.Minute))
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if free := l.Free(now); free != vec(400, 256, 90, 9) {
		t.Fatalf("Free after reserve = %v", free)
	}
	// Second reservation exceeding free space must fail.
	if _, err := l.Reserve(vec(500, 1, 1, 1), "app-2", now, now.Add(time.Minute)); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reserve err = %v, want ErrInsufficient", err)
	}
	if err := l.Commit(res.ID, now); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := l.Committed(); got != vec(600, 256, 10, 1) {
		t.Fatalf("Committed = %v", got)
	}
	// Reservation is consumed by commit.
	if err := l.Commit(res.ID, now); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("double Commit err = %v", err)
	}
	l.Release(vec(600, 256, 10, 1))
	if free := l.Free(now); free != vec(1000, 512, 100, 10) {
		t.Fatalf("Free after release = %v", free)
	}
}

func TestLedgerReservationExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(vec(100, 100, 100, 100))
	res, err := l.Reserve(vec(100, 100, 100, 100), "app", now, now.Add(30*time.Second))
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	later := now.Add(31 * time.Second)
	if free := l.Free(later); free != vec(100, 100, 100, 100) {
		t.Fatalf("expired reservation still held: free = %v", free)
	}
	if err := l.Commit(res.ID, later); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("Commit after expiry err = %v", err)
	}
}

func TestLedgerCancel(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(vec(100, 100, 100, 100))
	res, _ := l.Reserve(vec(50, 50, 50, 50), "app", now, now.Add(time.Minute))
	if err := l.Cancel(res.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if err := l.Cancel(res.ID); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("double Cancel err = %v", err)
	}
	if free := l.Free(now); free != vec(100, 100, 100, 100) {
		t.Fatalf("Free after cancel = %v", free)
	}
}

func TestLedgerNegativeAmountRejected(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(vec(100, 100, 100, 100))
	if _, err := l.Reserve(vec(-1, 0, 0, 0), "app", now, now.Add(time.Minute)); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestLedgerOverRelease(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(vec(100, 100, 100, 100))
	l.Release(vec(50, 50, 50, 50)) // nothing committed; must clamp, not go negative
	if got := l.Committed(); !got.NonNegative() {
		t.Fatalf("Committed went negative: %v", got)
	}
	if free := l.Free(now); free != vec(100, 100, 100, 100) {
		t.Fatalf("Free after over-release = %v", free)
	}
}

func TestLedgerOutstandingSorted(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(vec(100, 100, 100, 100))
	for i := 0; i < 3; i++ {
		if _, err := l.Reserve(vec(10, 10, 10, 10), "app", now, now.Add(time.Minute)); err != nil {
			t.Fatalf("Reserve %d: %v", i, err)
		}
	}
	out := l.Outstanding(now)
	if len(out) != 3 {
		t.Fatalf("Outstanding = %d, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].ID >= out[i].ID {
			t.Fatalf("Outstanding not sorted: %v", out)
		}
	}
}

// Property: after any sequence of reserve/commit/cancel/release operations,
// free capacity is non-negative and never exceeds total capacity.
func TestLedgerInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		now := time.Unix(0, 0)
		cap := vec(100, 100, 100, 100)
		l := NewLedger(cap)
		var ids []string
		for i, op := range ops {
			now = now.Add(time.Second)
			switch op % 4 {
			case 0:
				amt := float64(op%50) + 1
				if r, err := l.Reserve(vec(amt, amt, amt, amt), "p", now, now.Add(time.Minute)); err == nil {
					ids = append(ids, r.ID)
				}
			case 1:
				if len(ids) > 0 {
					_ = l.Commit(ids[i%len(ids)], now)
				}
			case 2:
				if len(ids) > 0 {
					_ = l.Cancel(ids[i%len(ids)])
				}
			case 3:
				amt := float64(op % 30)
				l.Release(vec(amt, amt, amt, amt))
			}
			free := l.Free(now)
			if !free.NonNegative() || !free.Fits(cap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformString(t *testing.T) {
	p := Platform{Arch: "amd64", OS: "linux"}
	if got := p.String(); got != "linux/amd64" {
		t.Fatalf("String = %q", got)
	}
}

func TestVectorString(t *testing.T) {
	if got := vec(1000, 512, 100, 10).String(); got == "" {
		t.Fatal("empty String()")
	}
}

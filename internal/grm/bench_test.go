package grm

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// missDeck is benchmark/gen.go's 16 requirement classes — thresholds on free
// CPU and memory, some with a platform — matching 1% to 90% of missFleet.
var missDeck = [16]struct {
	mips, ram float64
	platform  int // index into missPlatforms; -1 accepts any
}{
	{650, 512, -1}, {1400, 512, -1}, {200, 128, -1}, {400, 128, 0},
	{2200, 1024, 0}, {400, 128, -1}, {1300, 256, 1}, {1000, 128, -1},
	{250, 64, 0}, {1200, 1024, -1}, {500, 256, 2}, {2000, 256, -1},
	{200, 256, 1}, {800, 512, -1}, {1600, 512, 1}, {450, 1024, -1},
}

var missPlatforms = []resource.Platform{
	{Arch: "amd64", OS: "linux"}, {Arch: "arm64", OS: "linux"}, {Arch: "amd64", OS: "windows"},
}

// missFleet feeds a GRM n status updates drawn like the benchmark's fleet:
// 55/30/15% platforms, 500–3000 MIPS of which 20–100% is free, a fifth of the
// nodes dedicated, three in ten with a busy owner. It returns what it sent.
func missFleet(tb testing.TB, g *GRM, n int) []protocol.NodeStatus {
	tb.Helper()
	rng := sim.NewRNG(1)
	now := g.clock.Now()
	fleet := make([]protocol.NodeStatus, n)
	for i := range fleet {
		s := protocol.NodeStatus{
			NodeID:    fmt.Sprintf("n%05d", i),
			LRMRef:    orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprint(i)}, Key: "lrm"},
			LANID:     fmt.Sprintf("lan%02d", rng.Intn(16)),
			Platform:  missPlatforms[2],
			Dedicated: rng.Bool(0.2),
			Timestamp: now,
		}
		if u := rng.Float64(); u < 0.55 {
			s.Platform = missPlatforms[0]
		} else if u < 0.85 {
			s.Platform = missPlatforms[1]
		}
		s.Capacity = resource.Vector{
			MIPS:  float64(500 + rng.Intn(2501)),
			RAMMB: sim.Pick(rng, []float64{256, 512, 1024, 2048, 4096}),
		}
		s.GridFree = resource.Vector{
			MIPS:  math.Floor(s.Capacity.MIPS * (0.2 + 0.8*rng.Float64())),
			RAMMB: math.Floor(s.Capacity.RAMMB * (0.2 + 0.8*rng.Float64())),
		}
		if s.Dedicated {
			s.PredictedIdle = 24 * time.Hour
		} else if s.OwnerBusy = rng.Bool(0.375); !s.OwnerBusy {
			s.PredictedIdle = time.Duration(rng.Intn(8*60)) * time.Minute
		}
		if _, err := g.handleUpdate(&s, s.Windows); err != nil {
			tb.Fatal(err)
		}
		fleet[i] = s
	}
	return fleet
}

// BenchmarkPlacementMiss10k is a snapshot miss and nothing else: 10⁴ status
// offers, the 16-class deck in turn, a fresh matchCtx per placement, the first
// 8 candidates pulled as the reserve loop would, the context closed — no LRM,
// no RPC. `make profile-miss` writes its CPU profile, which is where ROADMAP
// item 2's per-function shares come from. The fleet has registered and never
// reported again, so the heap is laid out in registration order: the kindest
// case.
func BenchmarkPlacementMiss10k(b *testing.B) {
	g := New("bench", sim.NewVirtualClock(), orb.New())
	defer g.Stop()
	missFleet(b, g, 10000)
	placementMisses(b, g)
}

// BenchmarkPlacementMissChurned10k is the same miss on the heap a running GRM
// has: every node has since reported three times, in a different order each
// round, so an offer's neighbours in its shard are not its neighbours in memory
// — and nothing has touched the offers since (the collector aside), as a sweep
// of the shard before every miss once did. This is the number to quote.
func BenchmarkPlacementMissChurned10k(b *testing.B) {
	g := New("bench", sim.NewVirtualClock(), orb.New())
	defer g.Stop()
	fleet := missFleet(b, g, 10000)
	rng := sim.NewRNG(2)
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(fleet)) {
			if _, err := g.handleUpdate(&fleet[i], fleet[i].Windows); err != nil {
				b.Fatal(err)
			}
		}
	}
	runtime.GC()
	placementMisses(b, g)
}

// BenchmarkPlacementBatch10k is one admission batch's candidate work and
// nothing else: 10⁴ status offers, 64 applications — the 16-class deck four
// times — against one fresh matchCtx, the first 8 candidates pulled per
// application, the context closed as matchBatch closes it. shared is the batch
// as matchBatch runs it, every constraint filled by one trader walk and ranked
// in one heap; lazy skips that prefill, so each constraint is filled by a walk
// of its own at its first lookup. `make profile-batch` writes shared's CPU
// profile.
func BenchmarkPlacementBatch10k(b *testing.B) {
	g := New("bench", sim.NewVirtualClock(), orb.New())
	defer g.Stop()
	missFleet(b, g, 10000)
	deck := missApps()
	batch := make([]*appInfo, 0, 4*len(deck))
	for range 4 {
		batch = append(batch, deck[:]...)
	}
	for _, bc := range []struct {
		name    string
		prefill bool
	}{{"lazy", false}, {"shared", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mc := g.newMatchCtx()
				if bc.prefill {
					mc.prefill(batch)
				}
				for _, app := range batch {
					pullCandidates(b, mc, app)
				}
				mc.close()
			}
		})
	}
}

// missApps is one application of each class of missDeck.
func missApps() [len(missDeck)]*appInfo {
	var apps [len(missDeck)]*appInfo
	for i, c := range missDeck {
		spec := protocol.ApplicationSpec{Alloc: resource.Vector{MIPS: c.mips, RAMMB: c.ram}}
		if c.platform >= 0 {
			spec.Requirements.Platform = &missPlatforms[c.platform]
		}
		apps[i] = &appInfo{spec: spec, constraint: buildConstraint(spec)}
	}
	return apps
}

// pullCandidates takes the first DefaultMaxAttempts of app's candidates, as
// the reserve loop would.
func pullCandidates(tb testing.TB, mc *matchCtx, app *appInfo) {
	ranked, err := mc.candidates(app)
	if err != nil {
		tb.Fatal(err)
	}
	pulled := 0
	for range ranked.best() {
		if pulled++; pulled == DefaultMaxAttempts {
			break
		}
	}
}

func placementMisses(b *testing.B, g *GRM) {
	apps := missApps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := g.newMatchCtx()
		pullCandidates(b, mc, apps[i%len(apps)])
		mc.close()
	}
}

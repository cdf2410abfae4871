package main

import (
	"fmt"
	"math"
	"time"

	"integrade/internal/asct"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
)

// This file generates every input the workloads feed the program: the node
// fleet, the information updates that keep re-describing it, and the decks
// of application requirements. Everything is a pure function of the seed.

var platforms = []resource.Platform{
	{Arch: "amd64", OS: "linux"},
	{Arch: "arm64", OS: "linux"},
	{Arch: "amd64", OS: "windows"},
}

// platformShare is the fleet mix over platforms.
var platformShare = []float64{0.55, 0.30, 0.15}

const (
	lanCount      = 16
	dedicatedFrac = 0.20
	ownerBusyFrac = 0.30
	maxWindows    = 3
)

var ramSizes = []float64{256, 512, 1024, 2048, 4096}

// nodeRec is the generator's own record of one node: the status the GRM was
// last told, which is what the correctness oracle matches against.
type nodeRec struct {
	status protocol.NodeStatus
	// win backs status.Windows so that re-describing a node allocates
	// nothing (the driver's allocations would pollute alloc_kb_per_app).
	win [maxWindows]protocol.AvailWindow
}

// newNode draws the static half of a node: identity, platform, LAN and
// hardware capacity.
func newNode(rng *sim.RNG, i int, ref orb.ObjectRef) nodeRec {
	var rec nodeRec
	s := &rec.status
	s.NodeID = fmt.Sprintf("n%05d", i)
	s.LRMRef = ref
	u := rng.Float64()
	for p, share := range platformShare {
		if u < share || p == len(platformShare)-1 {
			s.Platform = platforms[p]
			break
		}
		u -= share
	}
	s.LANID = fmt.Sprintf("lan%02d", rng.Intn(lanCount))
	s.Capacity = resource.Vector{
		MIPS:    float64(500 + rng.Intn(2501)),
		RAMMB:   sim.Pick(rng, ramSizes),
		DiskMB:  float64(10000 * (1 + rng.Intn(10))),
		NetMbps: sim.Pick(rng, []float64{100, 1000}),
	}
	s.Dedicated = rng.Bool(dedicatedFrac)
	return rec
}

// redraw draws the dynamic half of a node in place — what one Information
// Update Protocol message changes: the grid-free share of each resource
// (20–100% of capacity), owner activity and the idle forecast. Every update
// of the 10⁴-node workloads re-draws, so the fleet's distribution is
// stationary while every offer the trader stores is really rewritten.
func redraw(rng *sim.RNG, rec *nodeRec, now time.Time) {
	s := &rec.status
	s.GridFree = resource.Vector{
		MIPS:    math.Floor(s.Capacity.MIPS * (0.2 + 0.8*rng.Float64())),
		RAMMB:   math.Floor(s.Capacity.RAMMB * (0.2 + 0.8*rng.Float64())),
		DiskMB:  s.Capacity.DiskMB,
		NetMbps: s.Capacity.NetMbps,
	}
	s.Timestamp = now
	if s.Dedicated {
		s.OwnerBusy = false
		s.PredictedIdle = 24 * time.Hour
		rec.win[0] = protocol.AvailWindow{Start: now, End: now.Add(24 * time.Hour), Confidence: 1}
		s.Windows = rec.win[:1]
		return
	}
	s.OwnerBusy = rng.Bool(ownerBusyFrac / (1 - dedicatedFrac))
	s.PredictedIdle = 0
	if !s.OwnerBusy {
		s.PredictedIdle = time.Duration(rng.Intn(8*60)) * time.Minute
	}
	n := rng.Intn(maxWindows + 1)
	start := now
	for w := 0; w < n; w++ {
		end := start.Add(time.Duration(1+rng.Intn(6)) * time.Hour)
		rec.win[w] = protocol.AvailWindow{Start: start, End: end, Confidence: 0.3 + 0.7*rng.Float64()}
		start = end.Add(time.Hour)
	}
	s.Windows = rec.win[:n]
}

// reqClass is one class of application requirements: thresholds on the
// grid-free CPU and memory of a node and, for some classes, a platform.
type reqClass struct {
	mips, ram float64
	platform  int // index into platforms; -1 accepts any
}

// classes is the requirement deck's 16 classes, listed by popularity rank
// (rank 1 first), with the share of the generated fleet each matches. The
// shares run from 1% to 90% and are interleaved so that the popular ranks are
// not all cheap or all expensive to match. Rank 1 sits in the middle on
// purpose: 15 of a deck's 32 submits match less than it does and 6 more are
// rank 1 itself, so the median placement latency falls inside one class's
// cluster and not in the gap between two.
var classes = [16]reqClass{
	{mips: 650, ram: 512, platform: -1},   // 35%
	{mips: 1400, ram: 512, platform: -1},  // 14%
	{mips: 200, ram: 128, platform: -1},   // 90%
	{mips: 400, ram: 128, platform: 0},    // 44%
	{mips: 2200, ram: 1024, platform: 0},  // 1%
	{mips: 400, ram: 128, platform: -1},   // 80%
	{mips: 1300, ram: 256, platform: 1},   // 6%
	{mips: 1000, ram: 128, platform: -1},  // 41%
	{mips: 250, ram: 64, platform: 0},     // 52%
	{mips: 1200, ram: 1024, platform: -1}, // 11%
	{mips: 500, ram: 256, platform: 2},    // 9%
	{mips: 2000, ram: 256, platform: -1},  // 7%
	{mips: 200, ram: 256, platform: 1},    // 21%
	{mips: 800, ram: 512, platform: -1},   // 29%
	{mips: 1600, ram: 512, platform: 1},   // 3%
	{mips: 450, ram: 1024, platform: -1},  // 26%
}

// matches is the oracle's own reading of a class: it does not go through the
// constraint language, so a bug there cannot hide.
func (c reqClass) matches(s *protocol.NodeStatus) bool {
	if s.GridFree.MIPS < c.mips || s.GridFree.RAMMB < c.ram {
		return false
	}
	return c.platform < 0 || s.Platform == platforms[c.platform]
}

// constraintText is the trader constraint the GRM derives from a class's
// application spec (grm.buildConstraint is unexported; the layer probes need
// the same text to query the trader directly).
func (c reqClass) constraintText() string {
	text := fmt.Sprintf("mips_free >= %g and ram_free >= %g", c.mips, c.ram)
	if c.platform >= 0 {
		p := platforms[c.platform]
		text += fmt.Sprintf(" and os == '%s' and arch == '%s'", p.OS, p.Arch)
	}
	return text
}

// builder is the ASCT description of a sequential application of the class.
func (c reqClass) builder(name string) *asct.Builder {
	b := asct.NewApplication(name).Sequential(1000).
		Allocate(resource.Vector{MIPS: c.mips, RAMMB: c.ram})
	if c.platform >= 0 {
		b.OnPlatform(platforms[c.platform])
	}
	return b
}

// deckSize is the number of submits in one requirement deck.
const deckSize = 32

// zipfDeck returns the fixed composition of one deck, as class indices in
// rank order: every class once, and the other 16 submits shared out by
// Zipf(1.1) weights over the ranks (largest-remainder rounding) — counts
// 6,4,3,2,2,2,2,2,2,1,…,1. Rounds reshuffle it; they never change what is
// in it.
func zipfDeck() []int {
	weights := make([]float64, len(classes))
	total := 0.0
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), 1.1)
		total += weights[k]
	}
	extra := deckSize - len(classes)
	counts := make([]int, len(classes))
	placed := 0
	for k, w := range weights {
		counts[k] = int(w / total * float64(extra))
		placed += counts[k]
	}
	for ; placed < extra; placed++ {
		best, bestRem := 0, -1.0
		for k, w := range weights {
			if rem := w/total*float64(extra) - float64(counts[k]); rem > bestRem {
				best, bestRem = k, rem
			}
		}
		counts[best]++
	}
	deck := make([]int, 0, deckSize)
	for k, n := range counts {
		for ; n >= 0; n-- {
			deck = append(deck, k)
		}
	}
	return deck
}

// hashMix folds v into an FNV-1a style running hash of the generated inputs.
func hashMix(h uint64, v int) uint64 {
	h ^= uint64(v) + 1
	return h * 1099511628211
}

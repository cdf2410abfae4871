// Package resource defines InteGrade's resource model: machine
// specifications, live load vectors, application requirements and
// preferences, and reservation accounting.
//
// The model follows Section 3 of the paper: nodes advertise CPU (MIPS),
// memory, disk and network capacity; applications state execution
// prerequisites (hardware/software platform), hard requirements (minimum
// memory, minimum CPU speed) and soft preferences ("rather execute on a
// faster CPU than on a slower one").
package resource

import (
	"fmt"
	"strings"
)

// Platform identifies a hardware/software platform. Grid applications state
// platform prerequisites; nodes advertise the platform they provide.
type Platform struct {
	Arch string // e.g. "amd64", "arm64"
	OS   string // e.g. "linux", "windows"
}

// String implements fmt.Stringer.
func (p Platform) String() string { return p.OS + "/" + p.Arch }

// Vector is a quantity of the four resource dimensions InteGrade tracks.
// It is used both for capacities and for in-use amounts.
type Vector struct {
	MIPS    float64 // CPU speed in millions of instructions per second
	RAMMB   float64 // physical memory in megabytes
	DiskMB  float64 // scratch disk in megabytes
	NetMbps float64 // network bandwidth in megabits per second
}

// Add returns v + w component-wise.
func (v Vector) Add(w Vector) Vector {
	return Vector{
		MIPS:    v.MIPS + w.MIPS,
		RAMMB:   v.RAMMB + w.RAMMB,
		DiskMB:  v.DiskMB + w.DiskMB,
		NetMbps: v.NetMbps + w.NetMbps,
	}
}

// Sub returns v - w component-wise.
func (v Vector) Sub(w Vector) Vector {
	return Vector{
		MIPS:    v.MIPS - w.MIPS,
		RAMMB:   v.RAMMB - w.RAMMB,
		DiskMB:  v.DiskMB - w.DiskMB,
		NetMbps: v.NetMbps - w.NetMbps,
	}
}

// Scale returns v scaled by k component-wise.
func (v Vector) Scale(k float64) Vector {
	return Vector{
		MIPS:    v.MIPS * k,
		RAMMB:   v.RAMMB * k,
		DiskMB:  v.DiskMB * k,
		NetMbps: v.NetMbps * k,
	}
}

// Fits reports whether v fits within capacity w in every dimension.
func (v Vector) Fits(w Vector) bool {
	return v.MIPS <= w.MIPS &&
		v.RAMMB <= w.RAMMB &&
		v.DiskMB <= w.DiskMB &&
		v.NetMbps <= w.NetMbps
}

// NonNegative reports whether every component of v is >= 0.
func (v Vector) NonNegative() bool {
	return v.MIPS >= 0 && v.RAMMB >= 0 && v.DiskMB >= 0 && v.NetMbps >= 0
}

// IsZero reports whether every component of v is zero.
func (v Vector) IsZero() bool { return v == Vector{} }

// max returns the component-wise maximum of v and w.
func (v Vector) max(w Vector) Vector {
	return Vector{
		MIPS:    max(v.MIPS, w.MIPS),
		RAMMB:   max(v.RAMMB, w.RAMMB),
		DiskMB:  max(v.DiskMB, w.DiskMB),
		NetMbps: max(v.NetMbps, w.NetMbps),
	}
}

// Min returns the component-wise minimum of v and w.
func (v Vector) Min(w Vector) Vector {
	return Vector{
		MIPS:    min(v.MIPS, w.MIPS),
		RAMMB:   min(v.RAMMB, w.RAMMB),
		DiskMB:  min(v.DiskMB, w.DiskMB),
		NetMbps: min(v.NetMbps, w.NetMbps),
	}
}

// Clamp returns v with every negative component replaced by zero.
func (v Vector) Clamp() Vector {
	return Vector{
		MIPS:    max(v.MIPS, 0),
		RAMMB:   max(v.RAMMB, 0),
		DiskMB:  max(v.DiskMB, 0),
		NetMbps: max(v.NetMbps, 0),
	}
}

// String implements fmt.Stringer.
func (v Vector) String() string {
	return fmt.Sprintf("{%.0f MIPS, %.0f MB RAM, %.0f MB disk, %.0f Mbps}",
		v.MIPS, v.RAMMB, v.DiskMB, v.NetMbps)
}

// MachineSpec is the static description of a grid node's hardware.
type MachineSpec struct {
	Platform Platform
	Capacity Vector
	// LANID identifies the local network segment the machine sits on. Nodes
	// sharing a LANID communicate at Capacity.NetMbps; traffic between
	// segments is limited by the inter-LAN backbone (see topology requests).
	LANID string
	// Dedicated marks machines reserved for grid computation, which have no
	// owner workload and never run a LUPA (paper, Section 4 footnote).
	Dedicated bool
}

// Validate reports a descriptive error for nonsensical specs.
func (m MachineSpec) Validate() error {
	var problems []string
	if m.Capacity.MIPS <= 0 {
		problems = append(problems, "non-positive MIPS")
	}
	if m.Capacity.RAMMB <= 0 {
		problems = append(problems, "non-positive RAM")
	}
	if m.Capacity.DiskMB < 0 {
		problems = append(problems, "negative disk")
	}
	if m.Capacity.NetMbps < 0 {
		problems = append(problems, "negative network bandwidth")
	}
	if m.Platform.Arch == "" || m.Platform.OS == "" {
		problems = append(problems, "incomplete platform")
	}
	if len(problems) > 0 {
		return fmt.Errorf("invalid machine spec: %s", strings.Join(problems, ", "))
	}
	return nil
}

// Requirements are the hard constraints an application places on each node
// that will host one of its processes.
type Requirements struct {
	Platform *Platform // nil means any platform
	Min      Vector    // per-process minimum resource amounts
}

// satisfiedBy reports whether a node with the given spec and currently
// available resources can satisfy r.
func (r Requirements) satisfiedBy(spec MachineSpec, available Vector) bool {
	if r.Platform != nil && *r.Platform != spec.Platform {
		return false
	}
	return r.Min.Fits(available)
}

// Preferences order acceptable nodes; they never exclude a node.
type Preferences struct {
	// FasterCPU prefers nodes with higher available MIPS.
	FasterCPU bool
	// MoreRAM prefers nodes with more available memory.
	MoreRAM bool
	// StayIdleWeight scales how strongly the usage-aware scheduler favours
	// nodes predicted to remain idle (0 disables, 1 is the default weight).
	StayIdleWeight float64
}

// score rates a candidate node for ranking; higher is better. The score is a
// weighted, normalized sum so that dimensions with different units compare.
func (p Preferences) score(available Vector, predictedIdleHours float64) float64 {
	s := 0.0
	if p.FasterCPU {
		s += available.MIPS / 1000
	}
	if p.MoreRAM {
		s += available.RAMMB / 1024
	}
	if p.StayIdleWeight > 0 {
		s += p.StayIdleWeight * predictedIdleHours
	}
	return s
}

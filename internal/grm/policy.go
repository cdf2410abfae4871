// Package grm implements the Global Resource Manager: the cluster-manager
// component that receives Information Update Protocol messages from LRMs
// (storing them in the Trading service, as the paper's GRM stores LRM
// information in the JacORB Trader), runs the Resource Reservation and
// Execution Protocol to place applications, and tracks application status
// for the ASCT.
package grm

import (
	"sort"

	"integrade/internal/constraint"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// Policy orders candidate offers best-first for the reservation protocol.
// Offers are NodeStatus trader offers; implementations read their numeric
// properties.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Order returns the candidates in descending placement preference.
	Order(offers []trading.Offer, rng *sim.RNG) []trading.Offer
}

// Offer property keys written by the GRM's update handler.
const (
	PropNode          = "node"
	PropMIPSTotal     = "mips_total"
	PropMIPSFree      = "mips_free"
	PropRAMFree       = "ram_free"
	PropDiskFree      = "disk_free"
	PropNetFree       = "net_free"
	PropLAN           = "lan"
	PropOS            = "os"
	PropArch          = "arch"
	PropDedicated     = "dedicated"
	PropOwnerBusy     = "owner_busy"
	PropPredictedIdle = "predicted_idle_s"
	PropUpdatedUnix   = "updated_unix"
	PropMgrEpoch      = "mgr_epoch"
	PropWindowEnd     = "window_end_unix"
	PropWindowConf    = "window_conf"
)

// statusSchema is the shape of every NodeStatus offer; exportStatusOffer fills
// a record's values in exactly this order. What a placement reads per
// candidate (buildConstraint's leading clauses, the policy keys) comes first.
var statusSchema = constraint.NewSchema(
	PropMIPSFree, PropRAMFree, PropOS, PropArch,
	PropOwnerBusy, PropDedicated, PropPredictedIdle,
	PropDiskFree, PropNetFree, PropMIPSTotal, "ram_total",
	PropWindowEnd, PropWindowConf, PropNode, PropLAN,
	"disk_total", "net_total", PropUpdatedUnix, PropMgrEpoch,
)

// The properties the GRM itself reads from candidate offers.
var (
	fieldNode          = constraint.NewField(PropNode)
	fieldMIPSTotal     = constraint.NewField(PropMIPSTotal)
	fieldMIPSFree      = constraint.NewField(PropMIPSFree)
	fieldRAMFree       = constraint.NewField(PropRAMFree)
	fieldNetFree       = constraint.NewField(PropNetFree)
	fieldLAN           = constraint.NewField(PropLAN)
	fieldDedicated     = constraint.NewField(PropDedicated)
	fieldOwnerBusy     = constraint.NewField(PropOwnerBusy)
	fieldPredictedIdle = constraint.NewField(PropPredictedIdle)
	fieldWindowEnd     = constraint.NewField(PropWindowEnd)
	fieldWindowConf    = constraint.NewField(PropWindowConf)
)

func numProp(o *trading.Offer, f *constraint.Field) float64 {
	v, _ := f.Of(o.Properties)
	n, _ := v.AsNumber()
	return n
}

func boolProp(o *trading.Offer, f *constraint.Field) bool {
	v, _ := f.Of(o.Properties)
	b, _ := v.AsBool()
	return b
}

func strProp(o *trading.Offer, f *constraint.Field) string {
	v, _ := f.Of(o.Properties)
	s, _ := v.AsString()
	return s
}

// keyedPolicy is a policy whose order is a function of one key per offer and
// nothing else: descending k1, then descending k2, ties left in input order.
// Having a key is what makes a policy pure — no RNG draw, no internal state —
// so the matcher computes the keys while it visits the trader's own offers,
// copies none of them, and shares one ranking per constraint within a batch.
// Stateful policies (Random, RoundRobin) have no key: their Order is re-invoked
// per query, on value copies, so their state advances exactly once per
// negotiation — once per application placed, however many tasks it has.
type keyedPolicy interface {
	key(o *trading.Offer) (k1, k2 float64)
}

// BestFit prefers nodes with the most free CPU, breaking ties toward more
// free RAM — a pure load-balance policy blind to usage patterns.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

func (BestFit) key(o *trading.Offer) (float64, float64) {
	return numProp(o, fieldMIPSFree), numProp(o, fieldRAMFree)
}

// Order implements Policy.
func (p BestFit) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	return rankValues(offers, p.key)
}

// UsageAware prefers nodes predicted to stay idle the longest (dedicated
// nodes count as indefinitely idle), breaking ties toward free CPU — the
// paper's usage-pattern-informed scheduling. The prediction is the node's own
// LUPA forecast, carried by its Information Update.
type UsageAware struct{}

// Name implements Policy.
func (UsageAware) Name() string { return "usage-aware" }

func (UsageAware) key(o *trading.Offer) (float64, float64) {
	var idle float64
	switch {
	case boolProp(o, fieldOwnerBusy): // a busy owner overrides everything: 0
	case boolProp(o, fieldDedicated):
		idle = 7 * 24 * 3600
	default:
		idle = numProp(o, fieldPredictedIdle)
	}
	return idle, numProp(o, fieldMIPSFree)
}

// Order implements Policy.
func (p UsageAware) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	return rankValues(offers, p.key)
}

// Random shuffles candidates uniformly — the naive baseline.
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Order implements Policy.
func (Random) Order(offers []trading.Offer, rng *sim.RNG) []trading.Offer {
	out := append([]trading.Offer(nil), offers...)
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// RoundRobin rotates through candidates in node-ID order, spreading load
// without any resource awareness.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Order implements Policy.
func (r *RoundRobin) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	out := append([]trading.Offer(nil), offers...)
	sort.SliceStable(out, func(i, j int) bool {
		return strProp(&out[i], fieldNode) < strProp(&out[j], fieldNode)
	})
	if len(out) == 0 {
		return out
	}
	start := r.next % len(out)
	r.next++
	return append(out[start:], out[:start]...)
}

package main

import (
	"runtime"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/trading"
)

// Layer probes call one layer's public entry point directly, on the inputs
// the workload itself generated and against the fleet the traced pass just
// used. They give the cost of a layer in isolation, which the spans cannot:
// a span boundary exists only where the ORB is crossed.

// probeSink keeps results the probes compute but do not report alive.
var probeSink int

// timeEach returns the mean time of one call of fn over n calls, in ns.
func timeEach(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeORB times a no-op invocation, so what is left is the transport.
func probeORB(out map[string]float64, metric string, scale float64, inv orb.Invoker, grmRef orb.ObjectRef, n int) {
	ref := orb.ObjectRef{Endpoint: grmRef.Endpoint, Key: pingKey}
	failed := 0
	ns := timeEach(n, func(int) {
		if _, err := inv.Invoke(ref, opPing, nil); err != nil {
			failed++
		}
	})
	if failed == 0 {
		out[metric] = ns / scale
	}
}

// probeCodecs times the protocol layer's two hot messages.
func probeCodecs(out map[string]float64, statuses []protocol.NodeStatus, specs []protocol.ApplicationSpec) {
	var enc orb.Encoder
	bytes := 0
	out["protocol.status_codec_ns"] = timeEach(len(statuses), func(i int) {
		enc.Reset()
		statuses[i].Encode(&enc)
		bytes += enc.Len()
		if _, err := protocol.DecodeNodeStatus(orb.NewDecoder(enc.Bytes())); err != nil {
			bytes = -1 << 40
		}
	})
	out["protocol.status_bytes"] = float64(bytes) / float64(len(statuses))
	out["protocol.spec_codec_ns"] = timeEach(len(specs), func(i int) {
		enc.Reset()
		specs[i].Encode(&enc)
		if _, err := protocol.DecodeApplicationSpec(orb.NewDecoder(enc.Bytes())); err != nil {
			enc.Reset()
		}
	})
}

// probeMatching replays one deck's queries against the fleet's live trader:
// the trader scan, the constraint evaluation inside it, and the policy
// order the GRM applies to the result. deck holds class indices; the means
// are per query, weighted as the deck weights them.
func probeMatching(out map[string]float64, tr *trading.Service, deck []int) {
	policy := grm.UsageAware{} // the GRM's default, which the workloads run
	var selectNs, orderNs, matched float64
	var ms0, ms1 runtime.MemStats
	results := make([][]trading.Offer, len(classes))
	runtime.ReadMemStats(&ms0)
	selectNs = timeEach(len(deck), func(i int) {
		offers, err := tr.SelectShared(trading.Query{
			ServiceType: grm.NodeStatusType, Constraint: classes[deck[i]].constraintText()})
		if err == nil {
			results[deck[i]] = offers
			matched += float64(len(offers))
		}
	})
	runtime.ReadMemStats(&ms1)
	orderNs = timeEach(len(deck), func(i int) {
		policy.Order(results[deck[i]], nil)
	})
	out["trading.select_us"] = selectNs / 1e3
	out["trading.matched_per_query"] = matched / float64(len(deck))
	out["trading.alloc_kb_per_select"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(deck))
	out["grm.policy_order_us"] = orderNs / 1e3

	// Constraint evaluation alone, over every live offer, and compilation
	// from cold (constraint.Compile bypasses the trader's compile cache).
	all, err := tr.SelectShared(trading.Query{ServiceType: grm.NodeStatusType})
	if err != nil || len(all) == 0 {
		return
	}
	var evalNs, compileNs float64
	for c := range classes {
		text := classes[c].constraintText()
		var expr *constraint.Expr
		compileNs += timeEach(1, func(int) { expr, err = constraint.Compile(text) })
		if err != nil {
			return
		}
		evalNs += timeEach(len(all), func(i int) {
			if ok, err := expr.Eval(all[i].Properties); err == nil && ok {
				probeSink++
			}
		}) * float64(len(all))
	}
	out["constraint.eval_ns_per_offer"] = evalNs / float64(len(classes)*len(all))
	out["constraint.compile_us"] = compileNs / float64(len(classes)) / 1e3
}

// probeExport times the trader's keyed upsert at the fleet's size, on a
// scratch trader loaded with copies of the fleet's offers — the live one
// takes writes only from the driver's update phases.
func probeExport(out map[string]float64, live *trading.Service, now func() time.Time) {
	offers := live.All(grm.NodeStatusType)
	if len(offers) == 0 {
		return
	}
	scratch := trading.NewService(now)
	if _, err := scratch.ExportBatch(offers); err != nil {
		return
	}
	n := max(2000, len(offers))
	failed := 0
	ns := timeEach(n, func(i int) {
		if _, err := scratch.ExportKeyed(offers[i%len(offers)]); err != nil {
			failed++
		}
	})
	if failed == 0 {
		out["trading.export_keyed_us"] = ns / 1e3
	}
}

// probeLedger times one reservation's life on a node's ledger.
func probeLedger(out map[string]float64) {
	ledger := resource.NewLedger(resource.Vector{MIPS: tcpNodeMIPS, RAMMB: 2048})
	amount := resource.Vector{MIPS: tcpTaskMIPS, RAMMB: tcpTaskRAM}
	now := time.Unix(0, 0)
	failed := 0
	ns := timeEach(20000, func(int) {
		res, err := ledger.Reserve(amount, "probe", now, now.Add(time.Minute))
		if err != nil || ledger.Commit(res.ID, now) != nil {
			failed++
			return
		}
		ledger.Release(amount)
	})
	if failed == 0 {
		out["resource.ledger_cycle_ns"] = ns
	}
}

func (f *stubFleet) probes(out map[string]float64) {
	probeORB(out, "orb.loopback_invoke_ns", 1, f.orb, f.grmRef, 200000)
	statuses := make([]protocol.NodeStatus, len(f.nodes))
	for i := range f.nodes {
		statuses[i] = f.nodes[i].status
	}
	specs := make([]protocol.ApplicationSpec, 0, len(f.deck))
	for i, c := range f.deck {
		if spec, err := classes[c].builder("probe-" + string(rune('a'+i%26))).Spec(); err == nil {
			specs = append(specs, spec)
		}
	}
	probeCodecs(out, statuses, specs)
	probeMatching(out, f.grm.Trader(), f.deck)
	probeExport(out, f.grm.Trader(), f.clock.Now)
	probeLedger(out)
}

func (f *tcpFleet) probes(out map[string]float64) {
	probeORB(out, "orb.tcp_rtt_us", 1e3, f.toolORB, f.grmSrv.Ref(protocol.GRMKey), 5000)
	statuses := make([]protocol.NodeStatus, len(f.hosts))
	for i, h := range f.hosts {
		statuses[i] = h.lrm.Status()
	}
	var specs []protocol.ApplicationSpec
	for _, shape := range f.shapes {
		b, _ := f.builder(shape, "probe")
		if spec, err := b.Spec(); err == nil {
			specs = append(specs, spec)
		}
	}
	probeCodecs(out, statuses, specs)
	probeExport(out, f.grm.Trader(), f.clock.Now)
	probeLedger(out)
}

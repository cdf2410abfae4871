package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"integrade/internal/protocol"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"apps_per_s", "1/s"},
	{"placed_p50_us", "us"},
	{"updates_per_s", "1/s"},
	{"alloc_kb_per_app", "KiB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"orb.tcp_rtt_us", "us"},
	{"orb.wire_us_per_rpc", "us"},
	{"orb.rpcs_per_app", "count"},
	{"orb.bytes_per_app", "B"},
	{"orb.loopback_invoke_ns", "ns"},
	{"protocol.status_codec_ns", "ns"},
	{"protocol.status_bytes", "B"},
	{"protocol.spec_codec_ns", "ns"},
	{"asct.submit_self_us", "us"},
	{"grm.submit_self_us", "us"},
	{"grm.policy_order_us", "us"},
	{"grm.snapshot_hit_rate", "frac"},
	{"grm.batches_per_round", "count"},
	{"grm.queue_peak", "count"},
	{"grm.drain_us_per_app", "us"},
	{"grm.update_self_us", "us"},
	{"grm.notify_us", "us"},
	{"grm.status_us", "us"},
	{"grm.reserve_per_placed", "ratio"},
	{"trading.select_us", "us"},
	{"trading.matched_per_query", "count"},
	{"trading.alloc_kb_per_select", "KiB"},
	{"trading.export_keyed_us", "us"},
	{"constraint.eval_ns_per_offer", "ns"},
	{"constraint.compile_us", "us"},
	{"lrm.reserve_us", "us"},
	{"lrm.execute_us", "us"},
	{"lrm.sync_self_us", "us"},
	{"lrm.update_build_us", "us"},
	{"resource.ledger_cycle_ns", "ns"},
	{"host.ref_cpu_ms", "ms"},
	{"host.ref_sort_ms", "ms"},
	{"host.ref_net_ms", "ms"},
	{"host.raw_apps_per_s", "1/s"},
	{"host.raw_placed_p50_us", "us"},
	{"host.raw_updates_per_s", "1/s"},
	{"host.placed_p99_us", "us"},
	{"host.cpu_ms_per_app", "ms"},
	{"host.gc_cycles_per_round", "count"},
	{"host.trace_overhead_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of a driver-mode run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type workloadReport struct {
	Name       string                 `json:"name"`
	Why        string                 `json:"why"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Samples    map[string]int         `json:"samples"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	// Raw is the timed end-to-end metrics before host normalisation.
	Raw      map[string]float64     `json:"raw"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Counters counters               `json:"counters"`
	Trace    string                 `json:"trace,omitempty"`
	// LayerSumFrac is, over the traced lifecycles of tcp_lifecycle_32, the
	// sum of every layer's self time divided by the lifecycle time.
	LayerSumFrac float64            `json:"layer_sum_frac,omitempty"`
	LayerSelfUs  map[string]float64 `json:"layer_self_us_per_app,omitempty"`
}

type report struct {
	Seed       int64            `json:"seed"`
	Passes     int              `json:"passes"`
	Quick      bool             `json:"quick"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Workloads  []workloadReport `json:"workloads"`
}

// timings pools the rounds of some passes. With normalise set, every time
// is scaled by nominal ÷ (the reference runs bracketing it).
type timings struct {
	totals, updates, placedUs, setups []float64
	apps, nUpd                        int
}

func pool(passes []passResult, nominal refSample, normalise bool) timings {
	var t timings
	for _, p := range passes {
		setupScale := 1.0
		if normalise {
			setupScale = nominal.scale(p.setupRef, true)
		}
		t.setups = append(t.setups, p.setup.Seconds()*setupScale)
		for r := range p.rounds {
			rs := &p.rounds[r]
			var total, updates float64
			for i, k := range rs.factors(nominal, normalise) {
				total += rs.segs[i].total.Seconds() * k
				updates += rs.segs[i].updates.Seconds() * k
				for _, d := range rs.segs[i].placed {
					t.placedUs = append(t.placedUs, d.Seconds()*k*1e6)
				}
			}
			t.totals = append(t.totals, total)
			t.updates = append(t.updates, updates)
			t.apps, t.nUpd = rs.apps, rs.nUpd
		}
	}
	return t
}

func perSecond(n int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(n) / seconds
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func buildReport(runs []*workloadRun, o options) report {
	rep := report{Seed: o.seed, Passes: o.passes, Quick: o.quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, r := range runs {
		rep.Workloads = append(rep.Workloads, buildWorkload(r))
	}
	return rep
}

func buildWorkload(r *workloadRun) workloadReport {
	wr := workloadReport{Name: r.def.name, Why: r.def.why, Counters: r.passes[0].counters, Trace: r.tracePath}
	var allocBytes uint64
	apps := 0
	all := r.passes
	if r.traced != nil {
		all = append(all[:len(all):len(all)], *r.traced)
	}
	for _, p := range all {
		wr.Attempted += p.attempted
		wr.Failed += p.failed
	}
	wr.FailedFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
	for _, p := range r.passes {
		allocBytes += p.allocBytes
		for _, rs := range p.rounds {
			apps += rs.apps
		}
	}

	norm := pool(r.passes, r.nominal, true)
	wr.Samples = map[string]int{
		"rounds": len(norm.totals), "placed": len(norm.placedUs), "setups": len(norm.setups)}
	e2e := map[string]float64{
		"apps_per_s":       perSecond(norm.apps, median(norm.totals)),
		"placed_p50_us":    median(norm.placedUs),
		"updates_per_s":    perSecond(norm.nUpd, median(norm.updates)),
		"alloc_kb_per_app": ratio(float64(allocBytes)/1024, float64(apps)),
		"setup_s":          median(norm.setups),
	}
	wr.EndToEnd = withUnits(e2e, endToEndMetrics)
	raw := pool(r.passes, r.nominal, false)
	wr.Raw = map[string]float64{
		"apps_per_s":    perSecond(raw.apps, median(raw.totals)),
		"placed_p50_us": median(raw.placedUs),
		"updates_per_s": perSecond(raw.nUpd, median(raw.updates)),
		"setup_s":       median(raw.setups),
	}
	if r.traced != nil {
		layers := perLayer(r, apps, wr.Raw, norm.placedUs)
		wr.PerLayer = withUnits(layers, perLayerMetrics)
		wr.LayerSelfUs, wr.LayerSumFrac = layerSums(r)
	}
	return wr
}

func withUnits(values map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// perLayer assembles the layer metrics from the traced pass's spans, the
// probes, the program's counters and the untraced passes' timings: raw, and
// the normalised submit → placed samples placedUs.
func perLayer(r *workloadRun, apps int, raw map[string]float64, placedUs []float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for k, v := range r.probes {
		m[k] = v
	}
	span := func(layer, op string) spanStat { return r.spans[[2]string{layer, op}] }

	var rpc spanStat
	for key, st := range r.spans {
		if key[0] == layerORB {
			rpc.n += st.n
			rpc.selfNs += st.selfNs
		}
	}
	m["orb.wire_us_per_rpc"] = rpc.selfUs()
	var rpcs, bytes int64
	var cpu time.Duration
	var gc uint32
	nRounds := 0
	for _, p := range r.passes {
		for _, rs := range p.rounds {
			rpcs += rs.rpcs
			bytes += rs.bytes
		}
		cpu += p.cpu
		gc += p.gcCycles
		nRounds += len(p.rounds)
	}
	m["orb.rpcs_per_app"] = ratio(float64(rpcs), float64(apps))
	m["orb.bytes_per_app"] = ratio(float64(bytes), float64(apps))

	m["asct.submit_self_us"] = span(layerASCT, "submit").selfUs()
	m["grm.submit_self_us"] = span(layerGRM, protocol.OpSubmit).selfUs()
	m["grm.update_self_us"] = max(0, span(layerGRM, protocol.OpUpdate).meanUs()-m["trading.export_keyed_us"])
	m["grm.notify_us"] = span(layerGRM, protocol.OpNotify).meanUs()
	m["grm.status_us"] = span(layerGRM, protocol.OpAppStatus).meanUs()
	if drain := span(layerBench, "drain"); drain.n > 0 {
		m["grm.drain_us_per_app"] = drain.selfUs() / ratio(float64(apps), float64(nRounds))
	}
	c := r.passes[0].counters
	m["grm.snapshot_hit_rate"] = ratio(float64(c.SnapshotHits), float64(c.SnapshotHits+c.SnapshotMisses))
	m["grm.reserve_per_placed"] = ratio(float64(c.NegotiationRounds), float64(c.TasksPlaced))
	m["grm.queue_peak"] = float64(c.QueuePeak)
	// Warm-up rounds are rounds like any other, so the pass total divides evenly.
	m["grm.batches_per_round"] = ratio(float64(c.SchedulerBatches), float64(len(r.passes[0].rounds)+r.passes[0].warmRounds))

	m["lrm.reserve_us"] = span(layerLRM, protocol.OpReserve).meanUs()
	m["lrm.execute_us"] = span(layerLRM, protocol.OpExecute).meanUs()
	m["lrm.sync_self_us"] = span(layerLRM, "sync").selfUs()
	m["lrm.update_build_us"] = span(layerLRM, "sendupdate").selfUs()

	m["host.raw_apps_per_s"] = raw["apps_per_s"]
	m["host.raw_placed_p50_us"] = raw["placed_p50_us"]
	m["host.raw_updates_per_s"] = raw["updates_per_s"]
	m["host.placed_p99_us"] = quantile(placedUs, 0.99)
	m["host.cpu_ms_per_app"] = ratio(cpu.Seconds()*1e3, float64(apps))
	m["host.gc_cycles_per_round"] = ratio(float64(gc), float64(nRounds))
	var refs [len(refSample{})][]float64
	for _, p := range r.passes {
		for _, d := range p.refs {
			for part := range d {
				refs[part] = append(refs[part], d[part].Seconds()*1e3)
			}
		}
	}
	if r.def.net {
		m["host.ref_net_ms"] = median(refs[refLookup])
	} else {
		m["host.ref_cpu_ms"] = median(refs[refLookup])
		m["host.ref_sort_ms"] = median(refs[refSort])
	}
	traced := pool([]passResult{*r.traced}, r.nominal, false)
	m["host.trace_overhead_frac"] = ratio(median(traced.totals)*raw["apps_per_s"], float64(traced.apps)) - 1
	return m
}

// layerSums adds up, over the traced spans that belong to an application,
// each layer's self time per application, and divides their sum by the
// driver's own lifecycle bracket where the workload has one.
func layerSums(r *workloadRun) (map[string]float64, float64) {
	life := r.spans[[2]string{layerBench, "lifecycle"}]
	if life.n == 0 {
		return nil, 0
	}
	self := make(map[string]float64)
	var sum int64
	for key, st := range r.appSpans {
		self[key[0]] += float64(st.selfNs) / float64(life.n) / 1e3
		sum += st.selfNs
	}
	return self, ratio(float64(sum), float64(life.totalNs))
}

func printReport(w io.Writer, rep report) {
	fmt.Fprintf(w, "integrade benchmark: seed %d, %d untraced pass(es), %s, GOMAXPROCS %d\n",
		rep.Seed, rep.Passes, rep.GoVersion, rep.GOMAXPROCS)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", wr.Name, wr.Why)
		fmt.Fprintf(w, "  samples: %d rounds, %d placed, %d set-ups; attempted %d, failed %d\n",
			wr.Samples["rounds"], wr.Samples["placed"], wr.Samples["setups"], wr.Attempted, wr.Failed)
		for _, d := range endToEndMetrics {
			fmt.Fprintf(w, "  %-30s %16.4f %s\n", d.name, wr.EndToEnd[d.name].Value, d.unit)
		}
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", "failed_frac", wr.FailedFrac, "frac")
		fmt.Fprintf(w, "  counters: %+v\n", wr.Counters)
		if wr.PerLayer == nil {
			continue
		}
		for _, d := range perLayerMetrics {
			fmt.Fprintf(w, "  %-30s %16.4f %s\n", d.name, wr.PerLayer[d.name].Value, d.unit)
		}
		if wr.LayerSumFrac > 0 {
			fmt.Fprintf(w, "  traced lifecycle: layer self times per app (us):")
			for _, layer := range []string{layerBench, layerASCT, layerORB, layerGRM, layerLRM} {
				fmt.Fprintf(w, " %s=%.1f", layer, wr.LayerSelfUs[layer])
			}
			fmt.Fprintf(w, "; sum / lifecycle = %.4f\n", wr.LayerSumFrac)
		}
		fmt.Fprintf(w, "  trace: %s\n", wr.Trace)
	}
}

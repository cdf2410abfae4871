// Command benchmark is the repository's one performance benchmark: four
// deterministic-work workloads over the intra-cluster protocols, six
// end-to-end metrics, and a traced pass that decomposes a round per layer.
// README.md in this directory defines every metric; BENCHMARK.json at the
// repository root is the contract the driver checks it against.
//
//	go run ./benchmark [-workload all|<name>] [-seed 1] [-passes 4] [-traced] [-quick] [-json path]
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The second form is the driver's: it ends with one JSON object on the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	net  bool // normalised by ref_net (real TCP) instead of ref_cpu
	// round is the length of one round on the reference host. It converts
	// --seconds into a round count, so that the work of a run is fixed by
	// its flags and never by how fast the host happens to be.
	round time.Duration
}

var workloads = []workloadDef{
	{name: "tcp_lifecycle_32", net: true, round: 250 * time.Millisecond,
		why: "real TCP, 32 LRMs: orb framing, protocol codecs, grm bookkeeping and lrm/resource do the work; the trader scan is negligible"},
	{name: "sched_miss_10k", round: 850 * time.Millisecond,
		why: "10^4 offers, synchronous admission: every placement is a snapshot miss, so trader scan, constraint evaluation and policy order dominate"},
	{name: "sched_batch_10k", round: 750 * time.Millisecond,
		why: "same fleet, async admission in gated batches of 64: snapshot hits and the admission queue matter; deleting the cache shows here"},
	{name: "update_churn_10k", round: 300 * time.Millisecond,
		why: "same fleet, 10^4 updates per submit: copy-on-write shard rebuilds dominate; an index that taxes every write shows here"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	passes   int
	traced   bool
	quick    bool
	jsonPath string
	outDir   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per workload, at the nominal round length")
	fs.IntVar(&o.trace, "trace", -1, "driver mode: 0 prints the end-to-end metrics as one JSON line, 1 the per-layer metrics")
	fs.IntVar(&o.passes, "passes", 4, "untraced passes, each a fresh set-up")
	fs.BoolVar(&o.traced, "traced", false, "add a traced pass and the layer probes")
	fs.BoolVar(&o.quick, "quick", false, "small fleets and two short rounds: a self-test, not a measurement")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report to this file")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	for _, d := range workloads {
		if o.workload == "all" || o.workload == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 || o.seconds < 1 || o.passes < 1 || (o.trace >= 0 && len(defs) != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload all or one of %v, -seconds and -passes at least 1, and one workload with -trace\n", workloadNames())
		return 2
	}
	sz := fullSizes
	if o.quick {
		sz = quickSizes
		o.passes = min(o.passes, 2)
	}
	// The measured time is split over the passes before -trace 1 drops all
	// but one: a per-layer run is a quarter of an end-to-end run, twice.
	perPass := time.Duration(o.seconds) * time.Second / time.Duration(o.passes)
	if o.trace == 1 {
		o.traced, o.passes = true, 1
	}

	runs, err := measure(defs, o, sz, perPass, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: seed %d: %v\n", o.seed, err)
		return 1
	}
	ok := true
	for _, r := range runs {
		for _, v := range r.violations {
			fmt.Fprintf(stderr, "benchmark: %s: seed %d: %s\n", r.def.name, o.seed, v)
			ok = false
		}
	}
	report := buildReport(runs, o)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, report); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printReport(stdout, report)
	if o.trace >= 0 {
		// The driver's line comes last.
		wr := report.Workloads[0]
		line := driverLine{Correct: ok, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.EndToEnd}
		if o.trace == 1 {
			line.Metrics = wr.PerLayer
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return names
}

// passResult is everything one pass (fresh set-up, then rounds) measured.
type passResult struct {
	setup      time.Duration
	setupRef   refSample // mean of the reference runs bracketing set-up
	warmRounds int
	rounds     []roundSample
	refs       []refSample // every run of the reference kernel
	counters   counters

	allocBytes uint64
	cpu        time.Duration
	gcCycles   uint32
	attempted  int
	failed     int
}

// workloadRun collects a workload's passes.
type workloadRun struct {
	def        workloadDef
	nominal    refSample
	passes     []passResult
	traced     *passResult
	spans      map[[2]string]spanStat // the traced pass's measured rounds
	appSpans   map[[2]string]spanStat // of those, the spans inside an application
	probes     map[string]float64
	tracePath  string
	violations []string
}

// measure runs the passes pass-major — every workload once, then every
// workload again — so that slow drift of the host spreads over all of them
// instead of landing on whichever ran last.
func measure(defs []workloadDef, o options, sz sizes, perPass time.Duration, stderr io.Writer) ([]*workloadRun, error) {
	cpu := newRefCPU()
	net, err := newRefNet()
	if err != nil {
		return nil, err
	}
	defer net.close()
	runs := make([]*workloadRun, len(defs))
	for i, d := range defs {
		runs[i] = &workloadRun{def: d, nominal: cpu.nominal()}
		if d.net {
			runs[i].nominal = net.nominal()
		}
	}
	kernel := func(d workloadDef) refKernel {
		if d.net {
			return net
		}
		return cpu
	}
	rounds := func(d workloadDef) int {
		if o.quick {
			return 2
		}
		return max(2, int((perPass+d.round/2)/d.round))
	}
	for p := 0; p < o.passes; p++ {
		for _, r := range runs {
			res, violations, err := runPass(r.def, o.seed, sz, rounds(r.def), kernel(r.def), nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", r.def.name, p+1, err)
			}
			r.violations = append(r.violations, violations...)
			if p > 0 && res.counters != r.passes[0].counters {
				r.violations = append(r.violations, fmt.Sprintf(
					"determinism guard: pass %d counted %+v, pass 1 counted %+v", p+1, res.counters, r.passes[0].counters))
			}
			r.passes = append(r.passes, res)
			fmt.Fprintf(stderr, "%s pass %d/%d: set-up %.3fs, median round %.1fms\n", r.def.name, p+1, o.passes,
				res.setup.Seconds(), median(roundTotals(res.rounds))*1e3)
		}
	}
	if !o.traced {
		return runs, nil
	}
	for _, r := range runs {
		tr := newTracer()
		r.probes = make(map[string]float64)
		res, violations, err := runPass(r.def, o.seed, sz, rounds(r.def), kernel(r.def), tr, r.probes)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", r.def.name, err)
		}
		r.violations = append(r.violations, violations...)
		if res.counters != r.passes[0].counters {
			r.violations = append(r.violations, fmt.Sprintf(
				"determinism guard: traced pass counted %+v, pass 1 counted %+v", res.counters, r.passes[0].counters))
		}
		r.traced, r.spans, r.appSpans = &res, tr.aggregate(false), tr.aggregate(true)
		if r.tracePath, err = tr.write(o.outDir, r.def.name); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func newBench(name string, seed int64, sz sizes, tr *tracer) (bench, error) {
	if name == "tcp_lifecycle_32" {
		return newTCPFleet(seed, sz, tr)
	}
	return newStubFleet(name, seed, sz, tr)
}

// runPass is one pass: set-up (fleet build plus warm-up rounds) bracketed by
// the reference kernel, then the measured rounds, each bracketed too; the
// kernel run after one round is the run before the next. A forced collection
// precedes every bracket so that each round starts from the same heap state.
func runPass(def workloadDef, seed int64, sz sizes, rounds int, ref refKernel, tr *tracer, probes map[string]float64) (res passResult, violations []string, err error) {
	// Set-up is long and happens once a pass, so its bracket can afford the
	// best of three kernel runs on each side.
	bracket := func() (best refSample, err error) {
		runtime.GC()
		for i := 0; i < 3; i++ {
			d, err := ref.run()
			if err != nil {
				return best, err
			}
			res.refs = append(res.refs, d)
			for part := range d {
				if i == 0 || d[part] < best[part] {
					best[part] = d[part]
				}
			}
		}
		return best, nil
	}
	before, err := bracket()
	if err != nil {
		return res, nil, err
	}
	t0 := time.Now()
	b, err := newBench(def.name, seed, sz, tr)
	if err != nil {
		return res, nil, err
	}
	defer b.close()
	res.warmRounds = b.warmRounds()
	for w := 0; w < res.warmRounds; w++ {
		var rs roundSample
		rs.begin(nil)
		b.round(0, &rs)
	}
	res.setup = time.Since(t0)
	after, err := bracket()
	if err != nil {
		return res, nil, err
	}
	for part := range before {
		res.setupRef[part] = (before[part] + after[part]) / 2
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	res.rounds = make([]roundSample, rounds)
	for r := range res.rounds {
		rs := &res.rounds[r]
		rs.begin(ref)
		b.round(r+1, rs)
		rs.end()
		if rs.err != nil {
			return res, nil, rs.err
		}
		res.refs = append(res.refs, rs.refs...)
	}
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC

	res.counters = b.counters()
	res.attempted, res.failed = b.tally()
	// The oracle's sweeps and the probes invoke through the traced ORBs too;
	// round 0 keeps their spans out of the per-layer figures.
	tr.setRound(0)
	violations = b.finish()
	if res.failed > 0 {
		violations = append(violations, fmt.Sprintf("%d of %d operations failed", res.failed, res.attempted))
	}
	if probes != nil {
		b.probes(probes)
	}
	return res, violations, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func roundTotals(rounds []roundSample) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.rawTotal().Seconds()
	}
	return out
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

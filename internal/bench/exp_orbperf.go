package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
	"integrade/internal/trading"
)

// This file implements E12, the ORB hot-path performance experiment added
// alongside the zero-allocation fast path: invoke throughput under 1/8/64
// concurrent callers on both transports, allocations per invocation, and
// trader Select latency against the compiled-expression cache. The same
// measurements serialize to BENCH_orb.json (integrade-bench -orb-json) so
// each PR extends a machine-readable perf trajectory instead of a prose
// claim.

// ORBPerfReport is the machine-readable form of E12.
type ORBPerfReport struct {
	Schema   string          `json:"schema"`
	Seed     int64           `json:"seed"`
	Short    bool            `json:"short"`
	Invoke   []InvokePoint   `json:"invoke"`
	Trader   []TraderPoint   `json:"trader_select"`
	Baseline ORBPerfBaseline `json:"pre_optimization_baseline"`
}

// InvokePoint is one transport × concurrency throughput measurement.
type InvokePoint struct {
	Transport   string  `json:"transport"`
	Callers     int     `json:"callers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	CallsPerSec float64 `json:"calls_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// TraderPoint is one trader Select latency measurement.
type TraderPoint struct {
	Offers      int     `json:"offers"`
	UsPerQuery  float64 `json:"us_per_query"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ORBPerfBaseline pins the numbers measured on this benchmark immediately
// before the fast path landed (single-core Xeon @2.10GHz, 256 B echo
// payload), the denominator of the speedup claims in EXPERIMENTS.md E12.
type ORBPerfBaseline struct {
	LoopbackNsPerOp64Callers float64 `json:"loopback_ns_per_op_64_callers"`
	LoopbackAllocsPerOp      float64 `json:"loopback_allocs_per_op"`
	TCPNsPerOp64Callers      float64 `json:"tcp_ns_per_op_64_callers"`
	TCPAllocsPerOp           float64 `json:"tcp_allocs_per_op"`
	Select100UsPerQuery      float64 `json:"trader_select_100_us_per_query"`
	Select1000UsPerQuery     float64 `json:"trader_select_1000_us_per_query"`
}

// prePRBaseline is the pre-optimization measurement recorded when the fast
// path was built (see EXPERIMENTS.md E12 for the full before/after table).
var prePRBaseline = ORBPerfBaseline{
	LoopbackNsPerOp64Callers: 578.3,
	LoopbackAllocsPerOp:      7,
	TCPNsPerOp64Callers:      10893,
	TCPAllocsPerOp:           34,
	Select100UsPerQuery:      21.5,
	Select1000UsPerQuery:     539,
}

// echoServant is the measurement workload: the fast-path servant idiom from
// DESIGN.md §13 (zero-copy read, pooled pre-sized reply encoder).
func echoServant() orb.Servant {
	return orb.NewOpMux().Handle("echo", func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
		data := req.RawBytes()
		if err := req.Err(); err != nil {
			return nil, orb.Errorf(orb.CodeMarshal, "echo: %v", err)
		}
		e := orb.GetEncoder()
		e.Grow(4 + len(data))
		e.PutBytes(data)
		return e, nil
	})
}

// measureInvoke drives callers goroutines through inv.Invoke for roughly
// budget and reports throughput plus the process-wide allocation rate per
// call (runtime.MemStats.Mallocs delta — the concurrent equivalent of
// -benchmem's allocs/op).
func measureInvoke(inv orb.Invoker, ref orb.ObjectRef, callers int, budget time.Duration) (InvokePoint, error) {
	var e orb.Encoder
	e.PutBytes(make([]byte, 256))
	arg := e.Bytes()
	for i := 0; i < 100; i++ {
		if _, err := inv.Invoke(ref, "echo", arg); err != nil {
			return InvokePoint{}, err
		}
	}

	var (
		stop  atomic.Bool
		total atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
		ms0   runtime.MemStats
		ms1   runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	start := benchClock.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for !stop.Load() {
				if _, err := inv.Invoke(ref, "echo", arg); err != nil {
					first.CompareAndSwap(nil, &err)
					break
				}
				n++
			}
			total.Add(n)
		}()
	}
	benchClock.Sleep(budget)
	stop.Store(true)
	wg.Wait()
	elapsed := benchClock.Now().Sub(start)
	runtime.ReadMemStats(&ms1)
	if errp := first.Load(); errp != nil {
		return InvokePoint{}, *errp
	}
	ops := int(total.Load())
	if ops == 0 {
		return InvokePoint{}, fmt.Errorf("bench: no invocations completed")
	}
	return InvokePoint{
		Callers:     callers,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		CallsPerSec: float64(ops) / elapsed.Seconds(),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
	}, nil
}

// measureSelect reports trader Select latency over offers node-status offers
// using the standard GRM-style constraint+preference query (hitting the
// compiled-expression cache after the first call, as production does).
func measureSelect(offers int, budget time.Duration) TraderPoint {
	s := trading.NewService(nil)
	for i := 0; i < offers; i++ {
		_, _ = s.Export(trading.Offer{
			ServiceType: "NodeStatus",
			Ref: orb.ObjectRef{
				Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("n%d", i)},
				Key:      "lrm",
			},
			Properties: constraint.Properties{
				"mips_free": constraint.Number(float64(100 + i%1000)),
				"ram_free":  constraint.Number(float64(64 + i%512)),
				"os":        constraint.String("linux"),
			}.Record(),
		})
	}
	q := trading.Query{
		ServiceType: "NodeStatus",
		Constraint:  "mips_free >= 500 and os == 'linux'",
		Preference:  "mips_free",
		Limit:       10,
	}
	for i := 0; i < 10; i++ {
		_, _ = s.Select(q)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := benchClock.Now()
	ops := 0
	for benchClock.Now().Sub(start) < budget {
		for i := 0; i < 10; i++ {
			_, _ = s.Select(q)
			ops++
		}
	}
	elapsed := benchClock.Now().Sub(start)
	runtime.ReadMemStats(&ms1)
	return TraderPoint{
		Offers:      offers,
		UsPerQuery:  float64(elapsed.Microseconds()) / float64(ops),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
	}
}

// MeasureORBPerf runs the E12 measurements. short trims the per-point budget
// for CI smoke runs; the numbers stay meaningful, just noisier.
func MeasureORBPerf(seed int64, short bool) (ORBPerfReport, error) {
	budget := 150 * time.Millisecond
	if short {
		budget = 25 * time.Millisecond
	}
	report := ORBPerfReport{
		Schema:   "integrade/bench-orb/v1",
		Seed:     seed,
		Short:    short,
		Baseline: prePRBaseline,
	}

	callerCounts := []int{1, 8, 64}

	o := orb.New()
	defer o.Close()
	adapter := orb.NewAdapter()
	if err := adapter.Register("echo", echoServant()); err != nil {
		return report, err
	}
	ep, err := o.BindLoopback("bench", adapter)
	if err != nil {
		return report, err
	}
	for _, callers := range callerCounts {
		pt, err := measureInvoke(o, orb.ObjectRef{Endpoint: ep, Key: "echo"}, callers, budget)
		if err != nil {
			return report, fmt.Errorf("loopback %d callers: %w", callers, err)
		}
		pt.Transport = "loopback"
		report.Invoke = append(report.Invoke, pt)
	}

	tcpAdapter := orb.NewAdapter()
	if err := tcpAdapter.Register("echo", echoServant()); err != nil {
		return report, err
	}
	srv, err := o.ListenTCP("127.0.0.1:0", tcpAdapter)
	if err != nil {
		return report, err
	}
	defer srv.Close()
	for _, callers := range callerCounts {
		pt, err := measureInvoke(o, srv.Ref("echo"), callers, budget)
		if err != nil {
			return report, fmt.Errorf("tcp %d callers: %w", callers, err)
		}
		pt.Transport = "tcp"
		report.Invoke = append(report.Invoke, pt)
	}

	for _, offers := range []int{100, 1000} {
		report.Trader = append(report.Trader, measureSelect(offers, budget))
	}
	return report, nil
}

// WriteJSON serializes the report, indented for diff-friendly check-in.
func (r ORBPerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Exp12ORBPerf renders the E12 measurements as an experiment table. Like
// E11 these are wall-clock numbers, not byte-stable across runs.
func Exp12ORBPerf(seed int64) Table {
	t := Table{
		ID:      "E12",
		Title:   "ORB fast-path throughput and allocation (wall clock)",
		Columns: []string{"scenario", "callers_or_offers", "ops", "ns_per_op", "allocs_per_op"},
	}
	report, err := MeasureORBPerf(seed, false)
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("measurement failed: %v", err))
		return t
	}
	for _, pt := range report.Invoke {
		t.AddRow("invoke/"+pt.Transport, pt.Callers, pt.Ops, pt.NsPerOp, pt.AllocsPerOp)
	}
	for _, pt := range report.Trader {
		t.AddRow("trader/select", pt.Offers, 0, pt.UsPerQuery*1000, pt.AllocsPerOp)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %d unused: wall-clock measurement", seed),
		fmt.Sprintf("pre-optimization baseline: loopback %.0f ns/op and %.0f allocs/op at 64 callers; tcp %.0f ns/op, %.0f allocs/op",
			prePRBaseline.LoopbackNsPerOp64Callers, prePRBaseline.LoopbackAllocsPerOp,
			prePRBaseline.TCPNsPerOp64Callers, prePRBaseline.TCPAllocsPerOp),
		"BENCH_orb.json (integrade-bench -orb-json) carries the machine-readable form")
	return t
}

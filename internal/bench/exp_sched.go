package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// This file implements E14, the scheduling-path throughput experiment added
// alongside the sharded copy-on-write trader and the batched admission
// pipeline: sustained submissions/sec and placement latency percentiles at
// 10²–10⁵ offers, in both the seed-compatible synchronous mode and the
// batched asynchronous mode. The same measurements serialize to
// BENCH_sched.json (integrade-bench -sched-json), the scheduling analogue
// of the BENCH_orb.json perf trajectory.

// SchedPerfReport is the machine-readable form of E14.
type SchedPerfReport struct {
	Schema   string            `json:"schema"`
	Seed     int64             `json:"seed"`
	Short    bool              `json:"short"`
	Points   []SchedPoint      `json:"points"`
	Baseline SchedPerfBaseline `json:"pre_pipeline_baseline"`
}

// SchedPoint is one offer-scale measurement. Sync numbers drive the
// latency percentiles (each Submit returns only after placement, the seed
// semantics); batch numbers drive the sustained-throughput claim (async
// enqueue, drained in admission batches against shared snapshots).
type SchedPoint struct {
	Offers           int     `json:"offers"`
	Apps             int     `json:"apps"`
	SyncSubsPerSec   float64 `json:"sync_subs_per_sec"`
	SyncAllocsPerApp float64 `json:"sync_allocs_per_app"`
	P50UsPerApp      float64 `json:"p50_us_per_app"`
	P99UsPerApp      float64 `json:"p99_us_per_app"`
	BatchSubsPerSec  float64 `json:"batch_subs_per_sec"`
	Batches          int     `json:"batches"`
	MaxBatch         int     `json:"max_batch"`
	QueuePeak        int     `json:"queue_peak"`
	SnapshotHits     int     `json:"snapshot_hits"`
	SnapshotMisses   int     `json:"snapshot_misses"`
}

// SchedPerfBaseline pins the numbers measured on this benchmark immediately
// before the sharded trader and admission pipeline landed (single-core Xeon
// @2.10GHz, one-app-at-a-time Submit against the flat locked offer index),
// the denominator of the speedup claims in EXPERIMENTS.md E14.
type SchedPerfBaseline struct {
	Subs100PerSec    float64 `json:"subs_per_sec_100_offers"`
	Subs1000PerSec   float64 `json:"subs_per_sec_1000_offers"`
	Subs10000PerSec  float64 `json:"subs_per_sec_10000_offers"`
	Subs100000PerSec float64 `json:"subs_per_sec_100000_offers"`
	UsPerApp10000    float64 `json:"us_per_app_10000_offers"`
}

// preSchedBaseline is the pre-pipeline measurement recorded when this
// experiment was built (see EXPERIMENTS.md E14 for the before/after table).
var preSchedBaseline = SchedPerfBaseline{
	Subs100PerSec:    2823.9,
	Subs1000PerSec:   259.7,
	Subs10000PerSec:  21.9,
	Subs100000PerSec: 1.6,
	UsPerApp10000:    45674,
}

// schedFleet is the measurement fixture: one GRM whose trader is primed
// with offers distinct node-status offers, every one backed by a loopback
// stub LRM that answers every Reserve with one hold, which is all a schedSpec
// application asks for — so the measurement isolates the trader query +
// candidate ordering + negotiation round-trips, not node admission policy.
type schedFleet struct {
	o *orb.ORB
	g *grm.GRM
}

// maxFleetEndpoints caps the loopback endpoints a fleet binds. Binding is
// O(registry size) per call (the ORB's copy-on-write table), so distinct
// endpoints per offer would make 10^5-offer setup quadratic; offers beyond
// the cap round-robin over the bound set. The scheduling path under
// measurement — shard merge, constraint evaluation, candidate ordering,
// reservation round-trips — sees the same offer population either way.
const maxFleetEndpoints = 2048

func newSchedFleet(offers int, opts ...grm.Option) (*schedFleet, error) {
	o := orb.New()
	clock := sim.NewVirtualClock()
	g := grm.New("bench", clock, o, opts...)

	adapter := orb.NewAdapter()
	grant := orb.NewOpMux().
		Handle(protocol.OpReserve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeReserveRequest(req); err != nil {
				return nil, err
			}
			var e orb.Encoder
			protocol.ReserveReply{Granted: true, ReservationID: "rsv"}.Encode(&e)
			return &e, nil
		}).
		Handle(protocol.OpExecute, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			if _, err := protocol.DecodeExecuteRequest(req); err != nil {
				return nil, err
			}
			return &orb.Encoder{}, nil
		})
	if err := adapter.Register(protocol.LRMKey, grant); err != nil {
		o.Close()
		return nil, err
	}

	eps := make([]orb.Endpoint, min(offers, maxFleetEndpoints))
	for i := range eps {
		ep, err := o.BindLoopback(fmt.Sprintf("n%d", i), adapter)
		if err != nil {
			o.Close()
			return nil, err
		}
		eps[i] = ep
	}
	batch := make([]trading.Offer, offers)
	for i := range batch {
		name := fmt.Sprintf("n%d", i)
		batch[i] = trading.Offer{
			ServiceType: grm.NodeStatusType,
			Ref:         orb.ObjectRef{Endpoint: eps[i%len(eps)], Key: protocol.LRMKey},
			Properties: constraint.Properties{
				grm.PropNode:      constraint.String(name),
				grm.PropMIPSFree:  constraint.Number(float64(100 + i%1000)),
				grm.PropRAMFree:   constraint.Number(1024),
				grm.PropDedicated: constraint.Bool(true),
			}.Record(),
		}
	}
	if _, err := g.Trader().ExportBatch(batch); err != nil {
		o.Close()
		return nil, err
	}
	return &schedFleet{o: o, g: g}, nil
}

func (f *schedFleet) close() {
	f.g.Stop()
	f.o.Close()
}

func schedSpec(i int) protocol.ApplicationSpec {
	return protocol.ApplicationSpec{
		Name:        fmt.Sprintf("app-%d", i),
		Kind:        protocol.AppSequential,
		NumTasks:    1,
		WorkPerTask: 1000,
		Alloc:       resource.Vector{MIPS: 50, RAMMB: 64},
	}
}

// percentileUs returns the q-quantile of durs in microseconds.
func percentileUs(durs []time.Duration, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// measureSchedPoint measures one offer scale: a synchronous run for
// latency percentiles, then a fresh asynchronous fleet for sustained
// batched throughput.
func measureSchedPoint(offers, apps int) (SchedPoint, error) {
	pt := SchedPoint{Offers: offers, Apps: apps}

	sync, err := newSchedFleet(offers)
	if err != nil {
		return pt, err
	}
	durs := make([]time.Duration, 0, apps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := benchClock.Now()
	for i := 0; i < apps; i++ {
		t0 := benchClock.Now()
		if _, err := sync.g.Submit(schedSpec(i)); err != nil {
			sync.close()
			return pt, fmt.Errorf("sync submit %d: %w", i, err)
		}
		durs = append(durs, benchClock.Now().Sub(t0))
	}
	elapsed := benchClock.Now().Sub(start)
	runtime.ReadMemStats(&ms1)
	sync.close()
	pt.SyncSubsPerSec = float64(apps) / elapsed.Seconds()
	pt.SyncAllocsPerApp = float64(ms1.Mallocs-ms0.Mallocs) / float64(apps)
	pt.P50UsPerApp = percentileUs(durs, 0.50)
	pt.P99UsPerApp = percentileUs(durs, 0.99)

	async, err := newSchedFleet(offers,
		grm.WithAsyncAdmission(), grm.WithAdmissionLimit(apps))
	if err != nil {
		return pt, err
	}
	defer async.close()
	start = benchClock.Now()
	for i := 0; i < apps; i++ {
		if _, err := async.g.Submit(schedSpec(i)); err != nil {
			return pt, fmt.Errorf("async submit %d: %w", i, err)
		}
	}
	for async.g.Stats().TasksPlaced < apps {
		benchClock.Sleep(100 * time.Microsecond)
	}
	elapsed = benchClock.Now().Sub(start)
	st := async.g.Stats()
	pt.BatchSubsPerSec = float64(apps) / elapsed.Seconds()
	pt.Batches = st.SchedulerBatches
	pt.MaxBatch = st.MaxBatchSize
	pt.QueuePeak = st.AdmissionPeakDepth
	pt.SnapshotHits = st.SnapshotHits
	pt.SnapshotMisses = st.SnapshotMisses
	return pt, nil
}

// MeasureSchedPerf runs the E14 measurements. short trims the offer scales
// and app counts for CI smoke runs; the numbers stay meaningful, just
// noisier.
func MeasureSchedPerf(seed int64, short bool) (SchedPerfReport, error) {
	report := SchedPerfReport{
		Schema:   "integrade/bench-sched/v1",
		Seed:     seed,
		Short:    short,
		Baseline: preSchedBaseline,
	}
	scales := []struct{ offers, apps int }{
		{100, 400}, {1000, 400}, {10000, 200}, {100000, 100},
	}
	if short {
		scales = []struct{ offers, apps int }{
			{100, 100}, {1000, 100}, {10000, 50},
		}
	}
	for _, sc := range scales {
		pt, err := measureSchedPoint(sc.offers, sc.apps)
		if err != nil {
			return report, fmt.Errorf("sched point %d offers: %w", sc.offers, err)
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

// WriteJSON serializes the report, indented for diff-friendly check-in.
func (r SchedPerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Exp14SchedPerf renders the E14 measurements as an experiment table. Like
// E11/E12 these are wall-clock numbers, not byte-stable across runs.
func Exp14SchedPerf(seed int64) Table {
	t := Table{
		ID:      "E14",
		Title:   "Scheduling-path throughput: sharded trader + batched admission (wall clock)",
		Columns: []string{"offers", "apps", "sync_subs_per_sec", "p50_us", "p99_us", "batch_subs_per_sec", "snapshot_hits"},
	}
	report, err := MeasureSchedPerf(seed, false)
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("measurement failed: %v", err))
		return t
	}
	for _, pt := range report.Points {
		t.AddRow(pt.Offers, pt.Apps, pt.SyncSubsPerSec, pt.P50UsPerApp, pt.P99UsPerApp, pt.BatchSubsPerSec, pt.SnapshotHits)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %d unused: wall-clock measurement", seed),
		fmt.Sprintf("pre-pipeline baseline: %.1f subs/sec at 100 offers, %.1f at 10k, %.1f at 100k (one-app-at-a-time, flat locked index)",
			preSchedBaseline.Subs100PerSec, preSchedBaseline.Subs10000PerSec, preSchedBaseline.Subs100000PerSec),
		"BENCH_sched.json (integrade-bench -sched-json) carries the machine-readable form")
	return t
}

// Package integrade_test hosts the repository-level benchmark harness: one
// testing.B benchmark per experiment table (DESIGN.md §9, EXPERIMENTS.md).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment once per iteration and reports the
// experiment's headline number as a custom metric; the full table is printed
// once per run (use cmd/integrade-bench for table-only output).
package integrade_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"integrade/internal/bench"
)

var (
	printOnce sync.Map // experiment ID -> *sync.Once
	benchSeed = int64(1)
)

// runExperiment executes the experiment once per b.N iteration, prints its
// table on the first run of the process, and reports headline metrics.
func runExperiment(b *testing.B, id string, metrics func(t bench.Table, b *testing.B)) {
	b.Helper()
	var exp bench.Experiment
	for _, e := range bench.All() {
		if e.ID == id {
			exp = e
			break
		}
	}
	if exp.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var last bench.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = exp.Run(benchSeed)
	}
	b.StopTimer()
	if len(last.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	onceAny, _ := printOnce.LoadOrStore(id, &sync.Once{})
	if once, ok := onceAny.(*sync.Once); ok {
		once.Do(func() {
			fmt.Println()
			fmt.Println(last.String())
		})
	}
	if metrics != nil {
		metrics(last, b)
	}
}

// cell parses a numeric table cell; it returns 0 for non-numeric cells.
func cell(t bench.Table, row int, col string) float64 {
	for i, c := range t.Columns {
		if c != col {
			continue
		}
		if row < 0 {
			row += len(t.Rows)
		}
		if row < 0 || row >= len(t.Rows) || i >= len(t.Rows[row]) {
			return 0
		}
		v, err := strconv.ParseFloat(t.Rows[row][i], 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}

// rowByFirst finds the row index whose first cell equals key, or -1.
func rowByFirst(t bench.Table, key string) int {
	for i, r := range t.Rows {
		if len(r) > 0 && r[0] == key {
			return i
		}
	}
	return -1
}

func BenchmarkExp1InformationUpdate(b *testing.B) {
	runExperiment(b, "E1", func(t bench.Table, b *testing.B) {
		// Delivery ratio at the largest cluster size.
		b.ReportMetric(cell(t, -1, "delivery_%"), "delivery400_%")
		b.ReportMetric(cell(t, -1, "max_offer_age_s"), "maxOfferAge_s")
	})
}

func BenchmarkExp2ReservationProtocol(b *testing.B) {
	runExperiment(b, "E2", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "0"); i >= 0 {
			b.ReportMetric(cell(t, i, "rounds_per_placement"), "roundsAtIdle")
		}
		if i := rowByFirst(t, "75"); i >= 0 {
			b.ReportMetric(cell(t, i, "rounds_per_placement"), "roundsAt75pct")
		}
	})
}

func BenchmarkExp3UsageClustering(b *testing.B) {
	runExperiment(b, "E3", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "office"); i >= 0 {
			b.ReportMetric(cell(t, i, "idle_MAE_h"), "officeMAE_h")
			b.ReportMetric(cell(t, i, "naive_MAE_h"), "naiveMAE_h")
		}
	})
}

func BenchmarkExp4UsageAwareScheduling(b *testing.B) {
	runExperiment(b, "E4", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "random"); i >= 0 {
			b.ReportMetric(cell(t, i, "evictions"), "evictionsRandom")
		}
		if i := rowByFirst(t, "usage-aware"); i >= 0 {
			b.ReportMetric(cell(t, i, "evictions"), "evictionsUsageAware")
		}
	})
}

func BenchmarkExp5OwnerQoS(b *testing.B) {
	runExperiment(b, "E5", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "greedy"); i >= 0 {
			b.ReportMetric(cell(t, i, "mean_owner_slowdown"), "slowdownGreedy")
		}
		if i := rowByFirst(t, "shared"); i >= 0 {
			b.ReportMetric(cell(t, i, "mean_owner_slowdown"), "slowdownShared")
		}
	})
}

func BenchmarkExp6BSPCheckpointing(b *testing.B) {
	runExperiment(b, "E6", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "none"); i >= 0 {
			b.ReportMetric(cell(t, i, "work_lost_MI"), "lostNoCkpt_MI")
		}
		if i := rowByFirst(t, "10min-work"); i >= 0 {
			b.ReportMetric(cell(t, i, "work_lost_MI"), "lost10min_MI")
		}
	})
}

func BenchmarkExp7VirtualTopology(b *testing.B) {
	runExperiment(b, "E7", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "topology-aware"); i >= 0 {
			b.ReportMetric(cell(t, i, "placed"), "placedAware")
		}
	})
}

func BenchmarkExp8Hierarchy(b *testing.B) {
	runExperiment(b, "E8", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "3"); i >= 0 {
			b.ReportMetric(cell(t, i, "mean_hops"), "hopsDepth3")
			b.ReportMetric(cell(t, i, "routed_ok_%"), "okDepth3_%")
		}
	})
}

func BenchmarkExp9Recovery(b *testing.B) {
	runExperiment(b, "E9", func(t bench.Table, b *testing.B) {
		// Completion at the 20% crash level, with and without recovery.
		for i, r := range t.Rows {
			if len(r) > 2 && r[0] == "20%" && r[1] == "0%" {
				switch r[2] {
				case "integrade":
					b.ReportMetric(cell(t, i, "completion_pct"), "recovery20pct_%")
				case "integrade-no-recovery":
					b.ReportMetric(cell(t, i, "completion_pct"), "noRecovery20pct_%")
				}
			}
		}
	})
}

func BenchmarkExp11ORB(b *testing.B) {
	runExperiment(b, "E11", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "inproc"); i >= 0 {
			b.ReportMetric(cell(t, i, "us_per_op"), "inproc64B_us")
		}
		if i := rowByFirst(t, "tcp"); i >= 0 {
			b.ReportMetric(cell(t, i, "us_per_op"), "tcp64B_us")
		}
	})
}

func BenchmarkExp13Failover(b *testing.B) {
	runExperiment(b, "E13", func(t bench.Table, b *testing.B) {
		// The first quorum row is the clean kill; the first cold row is the
		// 30 s detection threshold.
		if i := rowByFirst(t, "quorum"); i >= 0 {
			b.ReportMetric(cell(t, i, "recover_s"), "quorumRecover_s")
			b.ReportMetric(cell(t, i, "inflight_lost"), "quorumLost")
			b.ReportMetric(cell(t, i, "makespan_min"), "quorumMakespan_min")
		}
		if i := rowByFirst(t, "cold"); i >= 0 {
			b.ReportMetric(cell(t, i, "inflight_lost"), "coldLost")
			b.ReportMetric(cell(t, i, "makespan_min"), "coldMakespan_min")
		}
	})
}

func BenchmarkExp15Windows(b *testing.B) {
	runExperiment(b, "E15", func(t bench.Table, b *testing.B) {
		// Headline: lost work on the office-hours fleet, aware vs. blind.
		for i, r := range t.Rows {
			if len(r) > 1 && r[0] == "office-hours" {
				switch r[1] {
				case "window-aware":
					b.ReportMetric(cell(t, i, "lost_GI"), "awareLost_GI")
					b.ReportMetric(cell(t, i, "makespan_h"), "awareMakespan_h")
				case "window-blind":
					b.ReportMetric(cell(t, i, "lost_GI"), "blindLost_GI")
					b.ReportMetric(cell(t, i, "makespan_h"), "blindMakespan_h")
				}
			}
		}
	})
}

func BenchmarkExp10Baselines(b *testing.B) {
	runExperiment(b, "E10", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "integrade"); i >= 0 {
			b.ReportMetric(cell(t, i, "delivered_GI"), "integradeGI")
			b.ReportMetric(cell(t, i, "owner_busy_GI"), "partialIdleGI")
		}
		if i := rowByFirst(t, "boinc-like"); i >= 0 {
			b.ReportMetric(cell(t, i, "bsp_rejected"), "boincBSPRejected")
		}
	})
}

func BenchmarkAblationUpdatePeriod(b *testing.B) {
	runExperiment(b, "A1", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "10m0s"); i >= 0 {
			b.ReportMetric(cell(t, i, "rounds_per_placement"), "roundsAt10m")
		}
	})
}

func BenchmarkAblationMaxAttempts(b *testing.B) {
	runExperiment(b, "A2", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "1"); i >= 0 {
			b.ReportMetric(cell(t, i, "placed_immediately"), "placedBudget1")
		}
		if i := rowByFirst(t, "8"); i >= 0 {
			b.ReportMetric(cell(t, i, "placed_immediately"), "placedBudget8")
		}
	})
}

func BenchmarkAblationOfferTTL(b *testing.B) {
	runExperiment(b, "A3", func(t bench.Table, b *testing.B) {
		if i := rowByFirst(t, "1h0m0s"); i >= 0 {
			b.ReportMetric(cell(t, i, "refusal_%"), "refusalGhostTTL_%")
		}
	})
}

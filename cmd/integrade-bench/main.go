// Command integrade-bench regenerates the experiment tables of DESIGN.md
// Section 9 / EXPERIMENTS.md: the paper-claim experiments E1-E11, E13 and
// E15, and the design ablations A1-A3. Performance is measured by the
// repository benchmark (benchmark/, BENCHMARK.json), not here.
//
// Usage:
//
//	integrade-bench              # run the whole suite
//	integrade-bench -exp E4,E10  # run selected experiments
//	integrade-bench -seed 7      # change the experiment seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"integrade/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "integrade-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		seed    = flag.Int64("seed", 1, "experiment seed")
	)
	flag.Parse()

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, exp := range bench.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		start := time.Now()
		table := exp.Run(*seed)
		fmt.Println(table.String())
		// Wall-clock telemetry goes to stderr so stdout — the tables — is
		// byte-identical across runs with the same seed.
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", exp.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", *expFlag)
	}
	return nil
}

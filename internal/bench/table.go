// Package bench implements the experiment suite of DESIGN.md Section 9: one
// runner per experiment (E1–E11, E13, E15 and the ablations A1–A3), each
// regenerating its table. The runners are shared by the repository-root
// benchmarks (go test -bench) and the integrade-bench CLI.
//
// The 2003 paper contains no quantitative evaluation, so each experiment
// operationalizes one of its prose claims; EXPERIMENTS.md records the
// claim-vs-measured comparison.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID      string // e.g. "E1"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are rendered with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders floats compactly: integers without decimals, others
// with two.
func formatFloat(x float64) string {
	if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.2f", x)
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) Table
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Information Update Protocol scalability", Run: Exp1InformationUpdate},
		{ID: "E2", Title: "Reservation protocol under load", Run: Exp2ReservationProtocol},
		{ID: "E3", Title: "Usage-pattern clustering quality", Run: Exp3UsageClustering},
		{ID: "E4", Title: "Usage-aware scheduling", Run: Exp4UsageAwareScheduling},
		{ID: "E5", Title: "Owner quality-of-service preservation", Run: Exp5OwnerQoS},
		{ID: "E6", Title: "BSP checkpointing and recovery", Run: Exp6BSPCheckpointing},
		{ID: "E7", Title: "Virtual-topology placement", Run: Exp7VirtualTopology},
		{ID: "E8", Title: "Inter-cluster hierarchy routing", Run: Exp8Hierarchy},
		{ID: "E9", Title: "Failure recovery under fault injection", Run: Exp9Recovery},
		{ID: "E10", Title: "InteGrade vs Condor-like vs BOINC-like", Run: Exp10Baselines},
		{ID: "E11", Title: "ORB microbenchmarks", Run: Exp11ORB},
		{ID: "E13", Title: "GRM failover and cluster self-healing", Run: Exp13Failover},
		{ID: "E15", Title: "Availability-window scheduling on intermittent fleets", Run: Exp15Windows},
		{ID: "A1", Title: "Ablation: information-update period", Run: AblationUpdatePeriod},
		{ID: "A2", Title: "Ablation: negotiation attempt budget", Run: AblationMaxAttempts},
		{ID: "A3", Title: "Ablation: trader offer TTL", Run: AblationOfferTTL},
	}
}

// Command integrade-lint is the repo's multichecker: it runs InteGrade's
// custom go/analysis-style analyzers — the per-package checks (simclock,
// lockheld, orberr, nakedgo) and the interprocedural call-graph stage
// (rpccycle, maporder, lockheld-transitive, lockorder, hotpath, cowstore) —
// plus the stock `go vet` passes over the given package patterns
// and exits non-zero on any finding. -stage runs one stage alone (the cheap
// per-package checks, or the call-graph checks); a per-analyzer finding
// count summary goes to stderr, keeping stdout byte-stable.
//
// Usage:
//
//	go run ./cmd/integrade-lint [flags] [packages]
//
// With no patterns it checks ./... . Findings are suppressed by a
// justifying comment on the offending line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// With -json each finding is printed as one JSON object per line, followed
// by a summary object; the human-readable format stays the default. JSON
// output is byte-stable across runs and machines: file paths are relative to
// the working directory (with forward slashes) and findings are fully
// ordered by (file, line, column, analyzer, message), so CI can diff two
// runs textually.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"integrade/internal/lint"
)

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonSummary is the trailing line of -json output.
type jsonSummary struct {
	Summary  bool `json:"summary"`
	Findings int  `json:"findings"`
	Packages int  `json:"packages"`
}

func main() {
	var (
		novet    = flag.Bool("novet", false, "skip the stock go vet passes")
		list     = flag.Bool("list", false, "list the custom analyzers and exit")
		jsonOut  = flag.Bool("json", false, "print one JSON finding per line plus a summary line")
		selected = flag.String("analyzers", "", "comma-separated analyzer names to run (default: all); 'interproc' selects the call-graph analyzers")
		stage    = flag.String("stage", "all", "which stage to run: 'package' (cheap per-package analyzers), 'interproc' (call-graph analyzers), or 'all'")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: integrade-lint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-19s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	analyzers, err = filterStage(analyzers, *stage)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exitCode := 0

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			enc.Encode(jsonFinding{
				Analyzer: d.Analyzer,
				File:     relativePath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc.Encode(jsonSummary{Summary: true, Findings: len(diags), Packages: len(pkgs)})
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		exitCode = 1
	}
	printSummary(analyzers, diags, len(pkgs))

	if !*novet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout = os.Stdout
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			exitCode = 1
		}
	}

	os.Exit(exitCode)
}

// printSummary writes the per-analyzer finding counts to stderr. Stdout
// stays byte-stable (findings only), so CI can diff two runs textually
// while a human still sees what ran and what it found.
func printSummary(analyzers []*lint.Analyzer, diags []lint.Diagnostic, npkgs int) {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	parts := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		parts = append(parts, fmt.Sprintf("%s=%d", a.Name, counts[a.Name]))
	}
	fmt.Fprintf(os.Stderr, "integrade-lint: %d finding(s) over %d package(s): %s\n",
		len(diags), npkgs, strings.Join(parts, " "))
}

// filterStage narrows the selected analyzers to one stage: 'package' keeps
// the cheap per-package checks, 'interproc' keeps the whole-repo call-graph
// checks, 'all' keeps everything.
func filterStage(analyzers []*lint.Analyzer, stage string) ([]*lint.Analyzer, error) {
	switch stage {
	case "all":
		return analyzers, nil
	case "package", "interproc":
		var out []*lint.Analyzer
		for _, a := range analyzers {
			if (a.RunRepo != nil) == (stage == "interproc") {
				out = append(out, a)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("integrade-lint: -stage %s selects no analyzers", stage)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("integrade-lint: unknown -stage %q (want package, interproc or all)", stage)
	}
}

// relativePath rewrites an absolute diagnostic path relative to the working
// directory, with forward slashes, so -json output does not leak the
// checkout location and is identical across machines. Paths outside the
// working tree (or already relative) are returned unchanged.
func relativePath(file string) string {
	wd, err := os.Getwd()
	if err != nil || !filepath.IsAbs(file) {
		return file
	}
	rel, err := filepath.Rel(wd, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}

// selectAnalyzers resolves the -analyzers flag: empty means all, "interproc"
// expands to the call-graph analyzers, anything else is a comma-separated
// list of analyzer names.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return lint.All(), nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "interproc" {
			out = append(out, lint.Interprocedural()...)
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("integrade-lint: unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("integrade-lint: -analyzers %q selects nothing", spec)
	}
	return out, nil
}

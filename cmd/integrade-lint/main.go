// Command integrade-lint runs InteGrade's custom go/analysis-style
// analyzers (integrade-lint -list names them) over the given package
// patterns and exits 1 on any finding, 2 if the packages do not load.
// Stock go vet is a separate step. Findings go to stdout, one per line and
// ordered by position, so two runs can be diffed; a per-analyzer count goes
// to stderr.
//
// Usage:
//
//	go run ./cmd/integrade-lint [-list] [packages]
//
// With no patterns it checks ./... . Findings are suppressed by a
// justifying comment on the offending line or the line above:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"integrade/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: integrade-lint [-list] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-9s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.All())
	counts := map[string]int{}
	for _, d := range diags {
		fmt.Println(d)
		counts[d.Analyzer]++
	}
	var parts []string
	for _, a := range lint.All() {
		parts = append(parts, fmt.Sprintf("%s=%d", a.Name, counts[a.Name]))
	}
	fmt.Fprintf(os.Stderr, "integrade-lint: %d finding(s) over %d package(s): %s\n",
		len(diags), len(pkgs), strings.Join(parts, " "))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

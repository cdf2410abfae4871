package lint_test

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"integrade/internal/lint"
)

// module is the one load of the module the whole-module tests share.
var module struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

// loadModule loads and type-checks every package of the module, once per
// test binary.
func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	module.once.Do(func() { module.pkgs, module.err = lint.Load("../..", "./...") })
	if module.err != nil {
		t.Fatalf("loading module: %v", module.err)
	}
	return module.pkgs
}

// analyzedPackages are the packages the gate must keep seeing: the declared
// lock hierarchy lives in grm, bsp, core, election, orb and protocol; lrm,
// lupa, usage and chaos carry the availability-window machinery; and the
// chaos engine fires user callouts from the ORB's hot path, so holding its
// mutex across one would deadlock the virtual clock. If any drops out of the
// analyzed set, the gate passes vacuously for it.
var analyzedPackages = []string{
	"integrade/internal/grm",
	"integrade/internal/bsp",
	"integrade/internal/core",
	"integrade/internal/election",
	"integrade/internal/orb",
	"integrade/internal/protocol",
	"integrade/internal/lrm",
	"integrade/internal/lupa",
	"integrade/internal/usage",
	"integrade/internal/chaos",
}

// hotRoots are the headline hot functions: a typo in a //lint:hotpath
// annotation must not silently drop a contract.
var hotRoots = []string{
	"orb.(*Loopback).Invoke",
	"orb.(*OpMux).Dispatch",
	"trading.(*Service).Select",
	"trading.(*Service).SelectShared",
	"grm.(*matchCtx).lookup",
	"trading.(*Service).VisitMatchSet",
	"trading.(*Service).Export",
	"trading.(*Service).ExportKeyed",
	"trading.(*Service).Upsert",
	"constraint.(*Expr).Filter",
	"grm.newRanking",
	"grm.(*ranking).pop",
	"grm.(*ranking).settle",
	"orb.(*clientConn).call",
	"orb.(*Encoder).PutString",
	"orb.(*Decoder).String",
}

// TestRepoIsClean is the repo's permanent quality gate: every package in
// the module must pass every analyzer. New findings must be fixed or
// explicitly suppressed with a justifying //lint:allow comment, and a
// suppression must name an analyzer that exists.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadModule(t)
	known := map[string]bool{"all": true}
	for _, a := range lint.All() {
		known[a.Name] = true
	}
	allows := lint.Allows(pkgs)
	for _, file := range slices.Sorted(maps.Keys(allows)) {
		for _, line := range slices.Sorted(maps.Keys(allows[file])) {
			for _, name := range allows[file][line] {
				if !known[name] {
					t.Errorf("%s:%d: //lint:allow %s names no analyzer in lint.All()", file, line, name)
				}
			}
		}
	}
	for _, d := range lint.Run(pkgs, lint.All()) {
		t.Errorf("%s", d)
	}
}

// runDocs are the docs that tell a reader what to run; CHANGES.md
// and ROADMAP.md are history and may name targets that are gone.
var runDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md", "benchmark/README.md",
}

var (
	// makeTarget matches a rule line of the Makefile and captures its
	// targets; a variable assignment (`GO ?= go`) is not one.
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+(?: +[A-Za-z0-9_.-]+)*) *:(?:[^=]|$)`)
	// makeSpan matches a code span that starts with make, across a line
	// break too, and captures the target it names.
	makeSpan = regexp.MustCompile("`make\\s+([a-z][a-z0-9_.-]*)")
)

// TestDocsNameMakeTargets fails if a doc names, in a `make <target>` code
// span, a target the Makefile does not have.
func TestDocsNameMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		for _, name := range strings.Fields(string(m[1])) {
			targets[name] = true
		}
	}
	for _, doc := range runDocs {
		src, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeSpan.FindAllSubmatchIndex(src, -1) {
			if name := string(src[m[2]:m[3]]); !targets[name] {
				line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
				t.Errorf("%s:%d: `make %s` names no target in the Makefile", doc, line, name)
			}
		}
	}
}

var (
	// raceTarget matches the race target and captures its recipe.
	raceTarget = regexp.MustCompile(`(?m)^race:\n((?:\t.*\n)+)`)
	// raceRepeat matches one of the race target's repeated runs of named tests
	// and captures the names and the packages it runs them in.
	raceRepeat = regexp.MustCompile(`-run '\^\(([^)]*)\)\$\$'((?: +\./\S+)+)\n`)
	// testFunc matches a test function's declaration and captures its name.
	testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
)

// TestRaceRepeatsNameTests fails if the race target repeats, by name, a test
// that no package its line runs in declares: a -run pattern that matches
// nothing passes quietly, so a renamed test would drop out of the repeats
// unseen. Every repeated run of the target is checked.
func TestRaceRepeatsNameTests(t *testing.T) {
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	target := raceTarget.FindSubmatch(makefile)
	if target == nil {
		t.Fatal("Makefile: no race target")
	}
	repeats := raceRepeat.FindAllSubmatch(target[1], -1)
	if len(repeats) == 0 {
		t.Fatal("Makefile: the race target has no -run '^(…)$$' list of tests it repeats")
	}
	for _, m := range repeats {
		declared := map[string]bool{}
		for _, dir := range strings.Fields(string(m[2])) {
			files, err := filepath.Glob(filepath.Join("../..", dir, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("Makefile: the race target runs repeats in %s, which has no tests (%v)", dir, err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range testFunc.FindAllSubmatch(src, -1) {
					declared[string(d[1])] = true
				}
			}
		}
		for _, name := range strings.Split(string(m[1]), "|") {
			if !declared[name] {
				t.Errorf("Makefile: the race target repeats %s, which none of %s declares", name, strings.TrimSpace(string(m[2])))
			}
		}
	}
}

// requireAnalyzed fails the test if any of want is missing from the
// analyzed package set, where a contract sweep would pass vacuously.
func requireAnalyzed(t *testing.T, pkgs []*lint.Package, want ...string) {
	t.Helper()
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.PkgPath] = true
	}
	for _, w := range want {
		if !loaded[w] {
			t.Errorf("%s is not in the analyzed package set", w)
		}
	}
}

// TestChaosHoldsNoLockAcrossCallouts pins the fault-injection engine under
// the lock-discipline analyzer. The chaos engine sits on the ORB's hot path
// and fires user callouts (delivery closures, crash/restart hooks, scheduled
// fault events) that may block or re-enter the engine: holding the engine
// mutex across any of them would deadlock the virtual clock.
func TestChaosHoldsNoLockAcrossCallouts(t *testing.T) {
	pkgs := loadModule(t)
	requireAnalyzed(t, pkgs, "integrade/internal/chaos")
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{lint.Locks}) {
		t.Errorf("%s", d)
	}
}

// TestProtocolContractsHold is the negative sweep for the lock contracts:
// every observed lock nesting must follow the declared //lint:lockorder
// hierarchy, and no blocking call may run under a lock. This is also the
// regression gate for Grid.Stop and Cluster.FailNode, which were
// restructured to move teardown and eviction RPCs outside their locks: a
// failure here means a contract regressed — fix the code or add a justified
// declaration or suppression, never loosen the test.
func TestProtocolContractsHold(t *testing.T) {
	pkgs := loadModule(t)
	requireAnalyzed(t, pkgs, analyzedPackages...)
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{lint.Locks}) {
		t.Errorf("%s", d)
	}
}

// TestPerformanceContractsHold is the negative sweep for the
// performance-contract analyzers: every //lint:hotpath budget must hold over
// everything reachable from its root, and every atomic.Pointer registry must
// follow the copy-on-write discipline. It also asserts that the headline hot
// functions really are in the annotated root set.
func TestPerformanceContractsHold(t *testing.T) {
	pkgs := loadModule(t)
	roots := lint.HotpathRoots(pkgs)
	for _, want := range hotRoots {
		if !slices.Contains(roots, want) {
			t.Errorf("%s is not in the hotpath root set (roots: %v)", want, roots)
		}
	}
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{lint.HotPath, lint.CowStore}) {
		t.Errorf("%s", d)
	}
}

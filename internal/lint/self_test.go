package lint_test

import (
	"maps"
	"slices"
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
	"trading.(*Service).SelectPointers",
	"grm.(*matchCtx).lookup",
	"trading.(*Service).VisitMatches",
	"trading.(*Service).VisitMatchSet",
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

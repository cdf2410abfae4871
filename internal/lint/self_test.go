package lint_test

import (
	"testing"

	"integrade/internal/lint"
)

// TestRepoIsClean is the repo's permanent quality gate: every package in
// the module must pass every custom analyzer. New findings must be fixed or
// explicitly suppressed with a justifying //lint:allow comment.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestChaosHoldsNoLockAcrossCallouts pins the fault-injection engine under
// the lock-discipline analyzers. The chaos engine sits on the ORB's hot
// path and fires user callouts (delivery closures, crash/restart hooks,
// scheduled fault events) that may block or re-enter the engine: holding
// the engine mutex across any of them would deadlock the virtual clock.
// TestRepoIsClean already covers the module; this test additionally fails
// if internal/chaos ever drops out of the analyzed set.
func TestChaosHoldsNoLockAcrossCallouts(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	found := false
	for _, p := range pkgs {
		if p.PkgPath == "integrade/internal/chaos" {
			found = true
		}
	}
	if !found {
		t.Fatal("integrade/internal/chaos is not in the analyzed package set")
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.LockHeld, lint.LockHeldTransitive})
	if err != nil {
		t.Fatalf("running lockheld analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestProtocolContractsHold is the negative sweep for the contract
// analyzers of the interprocedural stage: every observed lock nesting
// must follow the declared //lint:lockorder hierarchy (lockorder), and no
// blocking call may run under a lock (lockheld-transitive — this is the
// regression gate for Grid.Stop and Cluster.FailNode, which were
// restructured to move teardown and eviction RPCs outside their locks). A
// failure here means a protocol or concurrency contract regressed — fix the
// code or add a justified declaration/suppression, never loosen the test.
func TestProtocolContractsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	// The declared lock hierarchy lives in these packages; if any drops out
	// of the analyzed set the sweep would pass vacuously. lrm, lupa, usage
	// and chaos carry the availability-window machinery (forecast windows on
	// the NodeStatus wire, departure notices, flap schedules), so the sweep
	// must keep seeing them too.
	for _, want := range []string{
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
	} {
		found := false
		for _, p := range pkgs {
			if p.PkgPath == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s is not in the analyzed package set", want)
		}
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.LockOrder, lint.LockHeldTransitive})
	if err != nil {
		t.Fatalf("running contract analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestPerformanceContractsHold is the negative sweep for the
// performance-contract analyzers: every //lint:hotpath budget must hold
// over everything reachable from its root, and every atomic.Pointer
// registry must follow the copy-on-write discipline (cowstore). It also
// asserts that the headline hot functions really are in the annotated root
// set — a typo in an annotation must not silently drop a contract.
func TestPerformanceContractsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	roots := lint.HotpathRoots(pkgs)
	rootSet := map[string]bool{}
	for _, r := range roots {
		rootSet[r] = true
	}
	for _, want := range []string{
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
	} {
		if !rootSet[want] {
			t.Errorf("%s is not in the hotpath root set (roots: %v)", want, roots)
		}
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.HotPath, lint.CowStore})
	if err != nil {
		t.Fatalf("running performance analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

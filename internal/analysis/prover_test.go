package analysis

// Tests for the three contract provers added with the scale-out work
// (snapshotcomplete, hotpathalloc, counterparity), the suite-level
// unused-suppression pass, and the meta-checks that run the full
// seven-analyzer suite over every fixture and over this package itself.

import (
	"go/token"
	"strings"
	"testing"
)

func TestSnapshotCompleteFixtures(t *testing.T) {
	runFixture(t, "snapshotcomplete/flagged", "gonoc/internal/core", SnapshotComplete)
	runFixture(t, "snapshotcomplete/clean", "gonoc/internal/core", SnapshotComplete)
	runFixture(t, "snapshotcomplete/ignore", "gonoc/internal/core", SnapshotComplete)
	runFixture(t, "snapshotcomplete/recycle", "gonoc/internal/core", SnapshotComplete)
	runFixture(t, "snapshotcomplete/accessor", "gonoc/internal/vc", SnapshotComplete)
}

func TestHotPathAllocFixtures(t *testing.T) {
	runFixture(t, "hotpathalloc/flagged", "gonoc/internal/core", HotPathAlloc)
	runFixture(t, "hotpathalloc/clean", "gonoc/internal/core", HotPathAlloc)
	runFixture(t, "hotpathalloc/ignore", "gonoc/internal/core", HotPathAlloc)
}

func TestCounterParityFixtures(t *testing.T) {
	runFixture(t, "counterparity/flagged", "gonoc/internal/obs", CounterParity)
	runFixture(t, "counterparity/clean", "gonoc/internal/obs", CounterParity)
	runFixture(t, "counterparity/ignore", "gonoc/internal/obs", CounterParity)
}

// TestUnusedSuppressionReported runs the full suite via RunSuite — the
// only mode that reports stale directives — over a fixture whose one
// directive suppresses nothing.
func TestUnusedSuppressionReported(t *testing.T) {
	pkg := loadTestFixture(t, "unusedignore", "gonoc/internal/core")
	diags, err := RunSuite([]*Package{pkg}, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	checkWants(t, pkg, diags)
}

// TestCounterParityFinish feeds the Finish hook synthetic facts: the
// whole-tree never-used check cannot run over single-package fixtures
// (fixture imports resolve to the real module), so the cross-package
// logic is exercised directly.
func TestCounterParityFinish(t *testing.T) {
	at := func(line int) string {
		return encodePos(token.Position{Filename: "kinds.go", Line: line, Column: 2})
	}
	facts := NewFacts()
	for _, pkg := range parityUserPkgs {
		facts.Set("par.analyzed:"+pkg, "")
	}
	facts.Set("par.analyzed:gonoc/internal/obs", "")
	facts.Set("par.kind:KUsed", at(1))
	facts.Set("par.kind:KOrphan", at(2))
	facts.Set("par.kind:KStallCredit", at(3))
	facts.Set("par.stall:StallCredit", at(4))
	facts.Set("par.stall:StallOrphan", at(5))
	facts.Set("par.used:KUsed", "")
	facts.Set("par.used:StallCredit", "")

	var got []Diagnostic
	finishCounterParity(facts, func(d Diagnostic) { got = append(got, d) })

	wantNames := map[string]bool{"KOrphan": false, "StallOrphan": false}
	for _, d := range got {
		found := false
		for name := range wantNames {
			if strings.Contains(d.Message, name+" ") {
				wantNames[name] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected finish diagnostic: %s", d)
		}
	}
	for name, hit := range wantNames {
		if !hit {
			t.Errorf("finish never reported %s as unused", name)
		}
	}
	if len(got) != 2 {
		t.Errorf("finish reported %d diagnostics, want 2 (KStallCredit must be covered by the StallCredit use)", len(got))
	}
}

// TestCounterParityFinishGated: with only part of the instrumented tree
// analyzed, the never-used check must stay silent.
func TestCounterParityFinishGated(t *testing.T) {
	facts := NewFacts()
	facts.Set("par.analyzed:gonoc/internal/core", "")
	facts.Set("par.kind:KOrphan", encodePos(token.Position{Filename: "kinds.go", Line: 1}))
	var got []Diagnostic
	finishCounterParity(facts, func(d Diagnostic) { got = append(got, d) })
	if len(got) != 0 {
		t.Errorf("finish fired on a partial run: %v", got)
	}
}

// TestSuiteOverFixtures runs all seven analyzers together over every
// fixture package: foreign analyzers may report on each other's
// fixtures, but none may error or panic.
func TestSuiteOverFixtures(t *testing.T) {
	cases := []struct{ fixture, pkgPath string }{
		{"determinism/flagged", "gonoc/internal/core"},
		{"determinism/clean", "gonoc/internal/core"},
		{"determinism/pool", "gonoc/internal/noc"},
		{"phasesafety/flagged", "gonoc/internal/noc"},
		{"phasesafety/clean", "gonoc/internal/noc"},
		{"obsguard/flagged", "gonoc/internal/core"},
		{"obsguard/clean", "gonoc/internal/core"},
		{"creditflow/flagged", "gonoc/internal/core"},
		{"creditflow/clean", "gonoc/internal/core"},
		{"snapshotcomplete/flagged", "gonoc/internal/core"},
		{"snapshotcomplete/clean", "gonoc/internal/core"},
		{"snapshotcomplete/ignore", "gonoc/internal/core"},
		{"snapshotcomplete/recycle", "gonoc/internal/core"},
		{"snapshotcomplete/accessor", "gonoc/internal/vc"},
		{"hotpathalloc/flagged", "gonoc/internal/core"},
		{"hotpathalloc/clean", "gonoc/internal/core"},
		{"hotpathalloc/ignore", "gonoc/internal/core"},
		{"counterparity/flagged", "gonoc/internal/obs"},
		{"counterparity/clean", "gonoc/internal/obs"},
		{"counterparity/ignore", "gonoc/internal/obs"},
		{"ignore", "gonoc/internal/core"},
		{"unusedignore", "gonoc/internal/core"},
	}
	for _, c := range cases {
		pkg := loadTestFixture(t, c.fixture, c.pkgPath)
		if _, err := RunAnalyzers(pkg, All()); err != nil {
			t.Errorf("%s: suite errored: %v", c.fixture, err)
		}
	}
}

// TestSuiteSelfCheck loads internal/analysis itself and runs the full
// suite over it: the prover must come up clean on its own source.
func TestSuiteSelfCheck(t *testing.T) {
	root, err := moduleRootOnce()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := Load(root, "", "./internal/analysis")
	if err != nil {
		t.Fatalf("loading internal/analysis: %v", err)
	}
	diags, err := RunSuite(pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("suite is not clean on its own source: %s", d)
	}
}

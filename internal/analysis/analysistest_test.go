package analysis

// This file is the fixture harness: each testdata/<analyzer>/<case>
// directory is loaded as a package under a fake gonoc import path (so it
// lands inside the scopes the analyzers guard) and the diagnostics are
// matched against `// want `regexp`` comments in the fixture source,
// x/tools-analysistest style. A line with no want comment must produce
// no diagnostics; a want comment must be matched by exactly the
// diagnostics on its line.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var moduleRootOnce = sync.OnceValues(func() (string, error) {
	return ModuleRoot()
})

// fixtureExports lists export data once per test process: the module's
// own packages plus the handful of standard-library packages fixtures
// import.
var fixtureExports = sync.OnceValues(func() (map[string]string, error) {
	root, err := moduleRootOnce()
	if err != nil {
		return nil, err
	}
	_, exports, err := listExports(root, "./...", "time", "math/rand", "sort", "fmt", "os")
	return exports, err
})

// loadTestFixture loads testdata/<fixture> as a package with the given
// import path, failing the test on load or type errors.
func loadTestFixture(t *testing.T, fixture, pkgPath string) *Package {
	t.Helper()
	root, err := moduleRootOnce()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	exports, err := fixtureExports()
	if err != nil {
		t.Fatalf("listing export data: %v", err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", fixture)
	pkg, err := LoadFixture(exports, dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", fixture, terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

// runFixture checks the analyzers' diagnostics over a fixture against its
// want comments.
func runFixture(t *testing.T, fixture, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadTestFixture(t, fixture, pkgPath)
	diags, err := RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	checkWants(t, pkg, diags)
}

// wantRe extracts the `// want `regexp“ expectations from a comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// checkWants matches diagnostics against the fixture's want comments by
// (file, line): every want must be hit and every diagnostic expected.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					k := key{filepath.Base(pos.Filename), pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	matched := map[key]int{}
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		ok := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				ok = true
				matched[k]++
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		if matched[k] < len(res) {
			t.Errorf("%s:%d: want %d diagnostic(s) matching %s, matched %d",
				k.file, k.line, len(res), describe(res), matched[k])
		}
	}
}

func describe(res []*regexp.Regexp) string {
	var out []string
	for _, re := range res {
		out = append(out, fmt.Sprintf("%q", re.String()))
	}
	return strings.Join(out, ", ")
}

func TestDeterminismFixtures(t *testing.T) {
	runFixture(t, "determinism/flagged", "gonoc/internal/core", Determinism)
	runFixture(t, "determinism/clean", "gonoc/internal/core", Determinism)
	runFixture(t, "determinism/pool", "gonoc/internal/noc", Determinism)
}

// TestDeterminismScope runs the determinism analyzer over the flagged
// fixture under a non-simulation import path: everything it would flag
// in scope must pass silently out of scope.
func TestDeterminismScope(t *testing.T) {
	pkg := loadTestFixture(t, "determinism/flagged", "gonoc/cmd/noctool")
	diags, err := RunAnalyzers(pkg, []*Analyzer{Determinism})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("determinism reported outside sim scope: %s", d)
	}
}

func TestPhaseSafetyFixtures(t *testing.T) {
	runFixture(t, "phasesafety/flagged", "gonoc/internal/noc", PhaseSafety)
	runFixture(t, "phasesafety/clean", "gonoc/internal/noc", PhaseSafety)
}

func TestCreditFlowFixtures(t *testing.T) {
	runFixture(t, "creditflow/flagged", "gonoc/internal/core", CreditFlow)
	runFixture(t, "creditflow/clean", "gonoc/internal/core", CreditFlow)
}

// TestIgnoreSuppressesNamedAnalyzerOnly runs the full suite over the
// ignore fixture: a //nocvet:ignore directive must drop findings of
// exactly the analyzer it names — other analyzers still report on the
// covered lines — and a directive missing its reason is itself reported.
func TestIgnoreSuppressesNamedAnalyzerOnly(t *testing.T) {
	runFixture(t, "ignore", "gonoc/internal/core", All()...)
}

// TestMarkerGrammarFixtures: a misspelled, decorated or misplaced //noc:
// marker is a finding of its own (pseudo-analyzer nocvet) rather than a
// proof silently switched off — with the whole suite running, and with
// no analyzer selected at all.
func TestMarkerGrammarFixtures(t *testing.T) {
	runFixture(t, "markers/flagged", "gonoc/internal/core", All()...)
	runFixture(t, "markers/flagged", "gonoc/internal/core")
	runFixture(t, "markers/clean", "gonoc/internal/core", All()...)
}

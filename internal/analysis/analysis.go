// Package analysis is gonoc's invariant linter framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface the nocvet analyzers are written against.
//
// The repository's headline guarantees — bit-exact parallel stepping and
// credit-conserving fault recovery — rest on coding rules ("no wall-clock
// time in simulation code", "credit counters change only through the
// audited accessors") that ordinary go vet cannot express. Each rule is a
// *Analyzer here; cmd/nocvet runs the whole suite over the module and
// exits non-zero on findings, so CI mechanically enforces what would
// otherwise be convention.
//
// The framework deliberately mirrors go/analysis: an Analyzer has a Name,
// a Doc string and a Run function receiving a *Pass with the package's
// syntax, type information and a Report sink. Porting the analyzers to
// the real x/tools framework, should the dependency ever become
// available, is a mechanical change. Cross-package checks use a
// string-keyed fact store instead of x/tools' typed facts: packages are
// analyzed in dependency order, so a pass can read the facts its
// dependencies exported, and an optional Finish hook runs once after
// every package for whole-program checks (counter parity).
//
// Each package's structure — its functions and their //noc: markers,
// its marked struct fields, its static call graph — is computed once
// (index.go) and shared by every pass; the //noc: grammar itself is a
// table (markers.go), and a directive it rejects is a finding.
//
// # Drivers
//
// RunSuite is the driver: cmd/nocvet runs it over the whole module.
// RunAnalyzers runs a set of analyzers over one package without the
// suite-wide passes, which is what the fixture tests need: each fixture
// exercises some analyzers, and a fixture's //nocvet:ignore naming an
// analyzer outside that set must not be reported stale. The ignore
// fixture's directive naming creditflow on a line no analyzer flags
// shows why — RunSuite reports it, and its want comments would not
// match.
//
// # Suppression
//
// A finding can be waived in place with
//
//	//nocvet:ignore <analyzer> <reason>
//
// placed on the offending line or alone on the line directly above it.
// The directive names exactly one analyzer; other analyzers still report
// on that line. The reason is required — an unexplained waiver is itself
// reported. In suite runs (RunSuite, which is what cmd/nocvet uses) a
// directive that suppresses nothing is itself a finding, so waivers
// cannot silently outlive the code they excused.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and //nocvet:ignore
	// directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description: the rule, and which guarantee
	// it protects.
	Doc string
	// Run executes the check over one package, reporting findings
	// through pass.Report. It returns an error only for internal
	// failures, not for findings.
	Run func(pass *Pass) error
	// Finish, if non-nil, runs once per suite after every package's Run
	// completed, reporting whole-program findings from the facts the
	// Runs recorded. Finish findings are still waivable at their line.
	// Single-package drivers (RunAnalyzers) do not call Finish.
	Finish func(facts *Facts, report func(Diagnostic))
}

// Pass carries one analyzed package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for every file of the package.
	Fset *token.FileSet
	// Files is the package's syntax, including in-package _test.go
	// files. External (package foo_test) test files form their own Pass.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the import path the analyzers scope on. For external
	// test packages it is the package under test's path plus "_test";
	// fixture packages may carry a fake path.
	PkgPath string
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Facts is the suite-wide fact store: writes made here are visible
	// to later packages' passes and to Finish hooks. Never nil.
	Facts *Facts

	index   *pkgIndex
	ignores *ignoreSet
	report  func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Waived reports whether a //nocvet:ignore directive for this pass's
// analyzer covers pos, marking the directive as used. Analyzers whose
// verdicts feed cross-package facts (hotpathalloc function summaries)
// call this at would-be findings, so a waived construct is excused
// everywhere, not just at its own line.
func (p *Pass) Waived(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.ignores.waive(p.Analyzer.Name, position.Filename, position.Line)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the violation and the fix.
	Message string
}

// String formats the finding the way cmd/nocvet prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Facts is the cross-package key/value store threaded through a suite
// run. Keys are plain strings (analyzers prefix their own namespace,
// e.g. "alloc:" or "derived:") so facts survive the loader's per-variant
// re-type-checking — types.Object identities differ between variants,
// qualified names do not. A value is whatever the analyzer that reads
// it back needs: a string, a token.Position, or nothing.
type Facts struct {
	m map[string]any
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: map[string]any{}} }

// Set records key = value, overwriting any previous value.
func (f *Facts) Set(key string, value any) { f.m[key] = value }

// Get returns the value recorded for key.
func (f *Facts) Get(key string) (any, bool) {
	v, ok := f.m[key]
	return v, ok
}

// Has reports whether key was recorded.
func (f *Facts) Has(key string) bool {
	_, ok := f.m[key]
	return ok
}

// Keys returns the sorted keys beginning with prefix.
func (f *Facts) Keys(prefix string) []string {
	var out []string
	for k := range f.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ignoreDirective is the parsed form of a //nocvet:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	fired    bool // suppressed at least one finding
}

// ignoreSet is every directive of one package, indexed for lookup and
// retained in declaration order for unused-directive reporting.
type ignoreSet struct {
	byLine    map[string]map[int][]*ignoreDirective
	all       []*ignoreDirective
	malformed []Diagnostic
}

// IgnorePrefix is the suppression directive's comment prefix.
const IgnorePrefix = "//nocvet:ignore"

// parseIgnores extracts every //nocvet:ignore directive of the files,
// keyed by (filename, line) for both the directive's own line and, for a
// directive standing alone on its line, the line below it. Both slots
// share one *ignoreDirective, so a fire through either marks the
// directive used.
func parseIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	s := &ignoreSet{byLine: map[string]map[int][]*ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnorePrefix)
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "nocvet",
						Message:  "malformed //nocvet:ignore: want \"//nocvet:ignore <analyzer> <reason>\"",
					})
					continue
				}
				d := &ignoreDirective{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      pos,
				}
				s.all = append(s.all, d)
				m := s.byLine[pos.Filename]
				if m == nil {
					m = map[int][]*ignoreDirective{}
					s.byLine[pos.Filename] = m
				}
				// The directive covers its own line (trailing form) and
				// the line below it (standalone form).
				m[pos.Line] = append(m[pos.Line], d)
				m[pos.Line+1] = append(m[pos.Line+1], d)
			}
		}
	}
	return s
}

// waive reports whether a directive for analyzer covers (file, line),
// marking it used.
func (s *ignoreSet) waive(analyzer, file string, line int) bool {
	if s == nil {
		return false
	}
	for _, d := range s.byLine[file][line] {
		if d.analyzer == analyzer {
			d.fired = true
			return true
		}
	}
	return false
}

// runOn indexes one package and executes the analyzers over it,
// dropping suppressed findings (which marks the covering directives
// used) and appending the package's malformed //nocvet:ignore and //noc:
// directives. The result is unsorted.
func runOn(pkg *Package, analyzers []*Analyzer, facts *Facts, ignores *ignoreSet) ([]Diagnostic, error) {
	ix := newIndex(pkg)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			PkgPath:   pkg.PkgPath,
			TypesInfo: pkg.TypesInfo,
			Facts:     facts,
			index:     ix,
			ignores:   ignores,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignores.waive(d.Analyzer, d.Pos.Filename, d.Pos.Line) {
			kept = append(kept, d)
		}
	}
	return append(append(kept, ignores.malformed...), ix.malformed...), nil
}

// RunAnalyzers executes the analyzers over a single package and returns
// the surviving findings: //nocvet:ignore-suppressed findings are
// dropped, and malformed directives are themselves reported. Findings
// are sorted by position. Finish hooks and unused-directive reporting
// need whole-suite context and run only under RunSuite.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, err := runOn(pkg, analyzers, NewFacts(), parseIgnores(pkg.Fset, pkg.Files))
	if err != nil {
		return nil, err
	}
	sortDiags(diags)
	return diags, nil
}

// RunSuite executes the analyzers over every package — in the order
// given, which Load guarantees is dependency order, so facts flow from
// dependencies to dependents — then runs each analyzer's Finish hook,
// and finally reports every unused //nocvet:ignore directive naming an
// analyzer in the run set: a waiver that suppresses nothing is stale and
// must be deleted. Findings are sorted by position.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFacts()
	var diags []Diagnostic
	var sets []*ignoreSet
	for _, pkg := range pkgs {
		ig := parseIgnores(pkg.Fset, pkg.Files)
		sets = append(sets, ig)
		d, err := runOn(pkg, analyzers, facts, ig)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		a.Finish(facts, func(d Diagnostic) {
			d.Analyzer = name
			for _, s := range sets {
				if s.waive(name, d.Pos.Filename, d.Pos.Line) {
					return
				}
			}
			diags = append(diags, d)
		})
	}
	inRun := map[string]bool{}
	for _, a := range analyzers {
		inRun[a.Name] = true
	}
	for _, s := range sets {
		for _, dir := range s.all {
			if inRun[dir.analyzer] && !dir.fired {
				diags = append(diags, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "nocvet",
					Message: fmt.Sprintf("unused //nocvet:ignore %s directive: no %s finding on this line or the next — delete it",
						dir.analyzer, dir.analyzer),
				})
			}
		}
	}
	sortDiags(diags)
	return diags, nil
}

// sortDiags orders findings by position, then analyzer.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

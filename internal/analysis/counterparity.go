package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CounterParity reports obs counters nobody counts.
//
// internal/obs declares the counter space (Kind) and the stall taxonomy
// (StallKind) and holds its own tables of their names and stages to its
// tests; core, noc, fault, watchdog and telemetry bind, increment and
// export them. A counter nobody increments exports a forever-zero
// series that reads as "no faults" instead of "not wired", and only the
// whole tree can show that.
//
// Every package records which Kind and StallKind constants its
// production code names, declarations aside. The key of a keyed
// composite-literal element is not a use: obs's tables name every
// constant as a row label. Finish (suite runs only) then reports every
// constant no package used — an obs-internal binding (BindRouter,
// BindNode) or a user-package increment both count. KStall* kinds are
// reached through StallKind.Kind(), so a use of the corresponding
// StallKind constant covers them. The check arms only when core, noc,
// fault, watchdog and telemetry were all analyzed in the same run, so
// partial loads (fixtures, single-package runs) stay silent.
var CounterParity = &Analyzer{
	Name:   "counterparity",
	Doc:    "report obs counters and stall causes declared but never bound or incremented anywhere in the tree",
	Run:    runCounterParity,
	Finish: finishCounterParity,
}

const (
	obsPkgPath       = "gonoc/internal/obs"
	telemetryPkgPath = "gonoc/internal/telemetry"
)

// parityUserPkgs are the packages that must have been analyzed before
// the whole-tree never-used check may fire.
var parityUserPkgs = []string{
	"gonoc/internal/core",
	"gonoc/internal/noc",
	"gonoc/internal/fault",
	"gonoc/internal/watchdog",
	telemetryPkgPath,
}

func runCounterParity(pass *Pass) error {
	if strings.HasSuffix(pass.PkgPath, "_test") {
		return nil
	}
	pass.Facts.Set("par.analyzed:"+basePkgPath(pass.PkgPath), "")
	if basePkgPath(pass.PkgPath) == obsPkgPath {
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			named, ok := c.Type().(*types.Named)
			if !ok || named.Obj().Pkg() != pass.Pkg {
				continue
			}
			switch {
			case named.Obj().Name() == "Kind" && name != "numKinds":
				pass.Facts.Set("par.kind:"+name, pass.Fset.Position(c.Pos()))
			case named.Obj().Name() == "StallKind" && name != "numStallKinds":
				pass.Facts.Set("par.stall:"+name, pass.Fset.Position(c.Pos()))
			}
		}
	}
	recordKindUses(pass)
	return nil
}

// recordKindUses records, for every package, which obs Kind/StallKind
// constants its production code references, skipping the keys of keyed
// composite literals.
func recordKindUses(pass *Pass) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			ast.Inspect(n.Value, visit)
			return false
		case *ast.Ident:
			c, ok := pass.TypesInfo.Uses[n].(*types.Const)
			if !ok {
				return true
			}
			named, ok := c.Type().(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != obsPkgPath {
				return true
			}
			switch named.Obj().Name() {
			case "Kind", "StallKind":
				pass.Facts.Set("par.used:"+c.Name(), "")
			}
		}
		return true
	}
	for _, f := range pass.index.prodFiles {
		ast.Inspect(f, visit)
	}
}

// finishCounterParity reports counters nobody increments. It arms only
// when the whole instrumented tree was analyzed in this run.
func finishCounterParity(facts *Facts, report func(Diagnostic)) {
	for _, pkg := range parityUserPkgs {
		if !facts.Has("par.analyzed:" + pkg) {
			return
		}
	}
	for _, decl := range []struct{ prefix, message string }{
		{"par.kind:", "obs counter %s is declared and named but never incremented or bound anywhere in the tree: wire it into the instrumentation or delete it"},
		{"par.stall:", "obs stall cause %s is declared and named but never attributed anywhere in the tree: wire it into the stall-attribution path or delete it"},
	} {
		for _, key := range facts.Keys(decl.prefix) {
			name := strings.TrimPrefix(key, decl.prefix)
			// A KStall* kind is reached through StallKind.Kind().
			if facts.Has("par.used:"+name) || (strings.HasPrefix(name, "KStall") && facts.Has("par.used:"+name[1:])) {
				continue
			}
			pos, _ := facts.Get(key)
			report(Diagnostic{Pos: pos.(token.Position), Message: fmt.Sprintf(decl.message, name)})
		}
	}
}

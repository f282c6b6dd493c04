package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// CounterParity keeps the observability surface and the instrumentation
// from drifting apart.
//
// internal/obs declares the counter space (Kind), the stall taxonomy
// (StallKind), their stable exported names (String) and their pipeline
// grouping (Stage); internal/telemetry exports the whole space to the
// Prometheus endpoint; core/noc/fault/watchdog increment the counters.
// Nothing ties those four layers together: a Kind added without a name
// misprints as "kind(31)", one missing from Stage silently lands in the
// fault group, and a counter nobody increments exports a forever-zero
// gauge that reads as "no faults" instead of "not wired".
//
// The analyzer checks, inside internal/obs:
//
//   - the Kind String() names array has exactly numKinds entries, and
//     the StallKind String() array exactly numStallKinds
//   - every Kind constant appears in a Stage() case clause; only kinds
//     whose exported name starts with "fault." may fall through to the
//     StageFault default
//   - the KStall* Kind block is contiguous and exactly numStallKinds
//     long, so StallKind.Kind()'s additive mapping stays total
//
// inside internal/telemetry:
//
//   - the package references obs.NumKinds and obs.NumStallKinds — the
//     export loops must iterate the full space, so new counters appear
//     on the endpoint without a telemetry change
//
// and across the whole tree (Finish, suite runs only): every Kind and
// StallKind constant must be referenced somewhere outside its own
// declaration, String and Stage — an obs-internal binding (BindRouter,
// BindNode) or a user-package increment both count. KStall* kinds are
// reached through StallKind.Kind(), so a use of the corresponding
// StallKind constant covers them. The whole-tree check arms only when
// core, noc, fault, watchdog and telemetry were all analyzed in the same
// run, so partial loads (fixtures, single-package runs) stay silent.
var CounterParity = &Analyzer{
	Name:   "counterparity",
	Doc:    "verify obs counters, their names, stages, telemetry export and instrumentation sites stay in one-to-one correspondence",
	Run:    runCounterParity,
	Finish: finishCounterParity,
}

// obsPkgPath is shared with obsguard.go.
const telemetryPkgPath = "gonoc/internal/telemetry"

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
	base := basePkgPath(pass.PkgPath)
	pass.Facts.Set("par.analyzed:"+base, "")
	if base == obsPkgPath {
		checkObsDecls(pass)
	}
	if base == telemetryPkgPath {
		checkTelemetryExport(pass)
	}
	recordKindUses(pass)
	return nil
}

// lookupConstValue resolves a package-scope integer constant.
func lookupConstValue(pkg *types.Package, name string) (int64, bool) {
	c, ok := pkg.Scope().Lookup(name).(*types.Const)
	if !ok {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(c.Val()))
}

// enumConsts returns the package-scope constants of the named local
// type, sorted by value.
func enumConsts(pkg *types.Package, typeName string) []*types.Const {
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != pkg || named.Obj().Name() != typeName {
			continue
		}
		out = append(out, c)
	}
	// scope.Names() is sorted by name; re-sort by declared value so the
	// positional names array lines up.
	sort.SliceStable(out, func(i, j int) bool {
		return constant.Compare(out[i].Val(), token.LSS, out[j].Val())
	})
	return out
}

// methodDecl finds the declaration of the method "Type.Name" in the
// package's production files.
func methodDecl(pass *Pass, method string) *ast.FuncDecl {
	if fns := pass.index.lookup(method); len(fns) > 0 {
		return fns[0].decl
	}
	return nil
}

// namesArray finds the first [...]string composite literal in the method
// body and returns its element values and the literal's position.
func namesArray(pass *Pass, fd *ast.FuncDecl) ([]string, token.Pos) {
	var names []string
	pos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		arr, ok := pass.TypesInfo.TypeOf(lit).Underlying().(*types.Array)
		if !ok || !isStringType(arr.Elem()) {
			return true
		}
		pos = lit.Pos()
		for _, elt := range lit.Elts {
			if bl, ok := elt.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if s, err := strconv.Unquote(bl.Value); err == nil {
					names = append(names, s)
					continue
				}
			}
			names = append(names, "")
		}
		return false
	})
	return names, pos
}

// checkObsDecls runs the in-package structural checks over internal/obs
// (or an obs fixture) and exports the declaration facts the Finish pass
// consumes.
func checkObsDecls(pass *Pass) {
	numKinds, haveNumKinds := lookupConstValue(pass.Pkg, "numKinds")
	kinds := enumConsts(pass.Pkg, "Kind")
	var kindNames []string

	if haveNumKinds {
		if fd := methodDecl(pass, "Kind.String"); fd != nil {
			names, pos := namesArray(pass, fd)
			kindNames = names
			if int64(len(names)) != numKinds {
				pass.Reportf(pos, "Kind String() names array has %d entries but numKinds is %d: every counter needs a stable exported name", len(names), numKinds)
			}
		}
		if fd := methodDecl(pass, "Kind.Stage"); fd != nil {
			covered := map[*types.Const]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					ast.Inspect(e, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
								covered[c] = true
							}
						}
						return true
					})
				}
				return true
			})
			for _, c := range kinds {
				if c.Name() == "numKinds" || covered[c] {
					continue
				}
				v, _ := constant.Int64Val(constant.ToInt(c.Val()))
				if int(v) < len(kindNames) && strings.HasPrefix(kindNames[v], "fault.") {
					continue // StageFault default is the fault kinds' home
				}
				pass.Reportf(c.Pos(), "Kind %s is not classified in Stage(): add a case clause — only fault.* kinds may fall through to the StageFault default", c.Name())
			}
		}
	}

	if numStall, ok := lookupConstValue(pass.Pkg, "numStallKinds"); ok {
		if fd := methodDecl(pass, "StallKind.String"); fd != nil {
			names, pos := namesArray(pass, fd)
			if int64(len(names)) != numStall {
				pass.Reportf(pos, "StallKind String() names array has %d entries but numStallKinds is %d: every stall cause needs a stable exported name", len(names), numStall)
			}
		}
		// KStall* must be a contiguous block exactly numStallKinds long:
		// StallKind.Kind() maps additively from KStallCreditStarved.
		var stallKinds []*types.Const
		for _, c := range kinds {
			if strings.HasPrefix(c.Name(), "KStall") {
				stallKinds = append(stallKinds, c)
			}
		}
		if len(stallKinds) > 0 {
			first, _ := constant.Int64Val(constant.ToInt(stallKinds[0].Val()))
			last, _ := constant.Int64Val(constant.ToInt(stallKinds[len(stallKinds)-1].Val()))
			switch {
			case int64(len(stallKinds)) != numStall:
				pass.Reportf(stallKinds[0].Pos(), "found %d KStall* Kind constants but numStallKinds is %d: the stall-counter block and the StallKind enum must stay in lockstep", len(stallKinds), numStall)
			case last-first+1 != int64(len(stallKinds)):
				pass.Reportf(stallKinds[0].Pos(), "the KStall* Kind block is not contiguous: StallKind.Kind() maps additively from %s, so interleaving other kinds breaks the mapping", stallKinds[0].Name())
			}
		}
	}

	for _, c := range kinds {
		if c.Name() == "numKinds" {
			continue
		}
		pass.Facts.Set("par.kind:"+c.Name(), pass.Fset.Position(c.Pos()))
	}
	for _, c := range enumConsts(pass.Pkg, "StallKind") {
		if c.Name() == "numStallKinds" {
			continue
		}
		pass.Facts.Set("par.stall:"+c.Name(), pass.Fset.Position(c.Pos()))
	}
}

// checkTelemetryExport requires the telemetry package to iterate the
// full counter space via the exported size constants.
func checkTelemetryExport(pass *Pass) {
	want := map[string]bool{"NumKinds": false, "NumStallKinds": false}
	for _, f := range pass.index.prodFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath {
				return true
			}
			if _, tracked := want[obj.Name()]; tracked {
				want[obj.Name()] = true
			}
			return true
		})
	}
	for _, name := range []string{"NumKinds", "NumStallKinds"} {
		if !want[name] {
			pass.Reportf(pass.Files[0].Name.Pos(), "telemetry never references obs.%s: export loops must iterate the full counter space so new counters appear on the endpoint automatically", name)
		}
	}
}

// recordKindUses records, for every package, which obs Kind/StallKind
// constants its production code references — excluding the String and
// Stage pretty-printers and the declarations themselves, which name
// every constant by construction.
func recordKindUses(pass *Pass) {
	for _, f := range pass.index.prodFiles {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil &&
				(fd.Name.Name == "String" || fd.Name.Name == "Stage") &&
				basePkgPath(pass.PkgPath) == obsPkgPath {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				c, ok := pass.TypesInfo.Uses[id].(*types.Const)
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
				return true
			})
		}
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

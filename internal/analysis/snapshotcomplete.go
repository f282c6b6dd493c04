package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SnapshotComplete proves the snapshot triple covers every mutable field.
//
// The model-checking tier (PR 7) and the ROADMAP's checkpoint/restore
// direction hang on one convention: SaveStateInto/RestoreState/
// AppendCanonical (core.Router) and SnapshotInto/Restore/AppendCanonical
// (noc.Network; SaveState and Snapshot are their allocate-fresh case) must
// touch *every* mutable field, or state hashing silently folds distinct
// states together and golden determinism drifts after a restore. A field
// added without snapshot coverage is exactly the heisenbug class runtime
// tests cannot see until a model-check run happens to traverse it.
//
// The analyzer diffs field sets against the triple's bodies using
// go/types:
//
//   - Contract structs (core.Router, noc.Network, noc.NI, and the saved
//     forms core.RouterState and noc.Snapshot) must have every field
//     referenced by each of their save, restore and — for the live
//     structs — canonical-encoding functions, or carry an explicit
//     "//noc:derived <reason>" marker stating why the field sits outside
//     the triple (recomputed on restore, immutable configuration,
//     per-cycle scratch, observational-only, accessor-covered).
//   - core's pass also checks the exported fields of vc.VC — the VC state
//     the core triple serializes across the package boundary — against
//     derived facts exported by vc's own pass.
//   - State-component packages (vc, arbiter, crossbar) get an
//     accessor-completeness check instead: every unexported field of
//     their state structs must be readable and writable through exported
//     functions (that is how the core triple reaches them), or be marked
//     //noc:derived.
//
// Deleting a live field's line from a save or restore function makes
// that field unreferenced in its role and fails the build. The saved
// forms are sequential records, not field-for-field mirrors, so the
// other half — "save wrote it, restore never read it" — is not visible
// to a field diff: RestoreState and Restore check at run time that they
// consumed the record to its last value, and FuzzSnapshotMatchesReference
// (internal/noc) holds both against the field-by-field code they
// replaced.
//
// The save functions fill caller-supplied storage when offered some and
// allocate only otherwise (SaveStateInto, SnapshotInto). A reference
// inside the allocating branch — the if body that assigns a whole new
// contract struct to a variable — therefore does not count: a field set
// only there keeps its stale value in recycled storage, and is reported.
var SnapshotComplete = &Analyzer{
	Name: "snapshotcomplete",
	Doc:  "verify every mutable field of the router/network state structs is covered by the Save/Restore/AppendCanonical triple or marked //noc:derived",
	Run:  runSnapshotComplete,
}

// snapRole is one leg of the snapshot triple: the named functions must
// collectively reference every field of the contract struct.
type snapRole struct {
	name  string
	funcs []string
}

// snapContract is one struct checked against its roles. With pkgPath
// set it is a struct of an imported package whose exported fields this
// package's triple serializes.
type snapContract struct {
	pkgPath  string
	typeName string
	roles    []snapRole
}

// snapContracts maps a package to its snapshot contracts. The function
// names are the triple as implemented; renaming one is a contract change
// and must be mirrored here.
var snapContracts = map[string][]snapContract{
	"gonoc/internal/core": {
		{typeName: "Router", roles: []snapRole{
			{name: "save", funcs: []string{"SaveStateInto", "saveVC"}},
			{name: "restore", funcs: []string{"RestoreState", "restoreVC"}},
			{name: "canonical", funcs: []string{"AppendCanonical"}},
		}},
		{typeName: "RouterState", roles: []snapRole{
			{name: "save", funcs: []string{"SaveStateInto", "saveVC"}},
			{name: "restore", funcs: []string{"RestoreState", "restoreVC"}},
		}},
		{pkgPath: "gonoc/internal/vc", typeName: "VC", roles: []snapRole{
			{name: "save", funcs: []string{"saveVC"}},
			{name: "restore", funcs: []string{"restoreVC"}},
			{name: "canonical", funcs: []string{"AppendCanonical"}},
		}},
	},
	"gonoc/internal/noc": {
		{typeName: "Network", roles: []snapRole{
			{name: "save", funcs: []string{"SnapshotInto", "fill", "saveNI"}},
			{name: "restore", funcs: []string{"Restore", "restoreNI"}},
			{name: "canonical", funcs: []string{"AppendCanonical", "AppendCanonicalNode", "appendCanonicalNI", "appendCanonicalWindows"}},
		}},
		{typeName: "NI", roles: []snapRole{
			{name: "save", funcs: []string{"saveNI"}},
			{name: "restore", funcs: []string{"restoreNI"}},
			{name: "canonical", funcs: []string{"appendCanonicalNI"}},
		}},
		{typeName: "Snapshot", roles: []snapRole{
			{name: "save", funcs: []string{"SnapshotInto", "fill", "saveNI"}},
			{name: "restore", funcs: []string{"Restore", "restoreNI"}},
		}},
	},
}

// accessorStructs lists, per state-component package, the structs whose
// unexported fields the core/noc triple reaches through accessors.
var accessorStructs = map[string][]string{
	"gonoc/internal/vc":       {"VC"},
	"gonoc/internal/arbiter":  {"RoundRobin", "Bypassed"},
	"gonoc/internal/crossbar": {"Protected"},
}

func runSnapshotComplete(pass *Pass) error {
	if strings.HasSuffix(pass.PkgPath, "_test") {
		return nil
	}
	base := basePkgPath(pass.PkgPath)
	collectDerived(pass, base)
	pass.Facts.Set("snap.analyzed:"+base, "")

	for _, c := range snapContracts[base] {
		pkg, qual, display := pass.Pkg, base+"."+c.typeName, c.typeName
		if c.pkgPath != "" {
			if !pass.Facts.Has("snap.analyzed:" + c.pkgPath) {
				continue // dependency not in this run: derived facts unavailable
			}
			if pkg = importedPackage(pass.Pkg, c.pkgPath); pkg == nil {
				continue
			}
			qual = c.pkgPath + "." + c.typeName
			display = qual
		}
		st, pos := lookupStruct(pkg, c.typeName)
		if st == nil {
			continue // fixture subset: struct not modeled
		}
		checkContract(pass, c, st, pos, qual, display)
	}
	if structs, ok := accessorStructs[base]; ok {
		checkAccessors(pass, base, structs)
	}
	return nil
}

// collectDerived reports reason-less //noc:derived markers and exports
// every reasoned one as a fact keyed by the field's qualified name
// ("snap.derived:<pkg>.<Type>.<field>"), which this package's contract
// checks and dependent packages' passes consult.
func collectDerived(pass *Pass, base string) {
	for _, fi := range pass.index.fields {
		reason, ok := fi.markers[MarkerDerived]
		if !ok || fi.owner == "" {
			continue
		}
		if reason == "" {
			pass.Reportf(fi.field.Pos(), "%s requires a reason: \"%s <why this field sits outside the snapshot triple>\"", MarkerDerived, MarkerDerived)
			continue
		}
		for _, name := range fi.field.Names {
			pass.Facts.Set("snap.derived:"+base+"."+fi.owner+"."+name.Name, reason)
		}
	}
}

// lookupStruct finds a named struct type in the package and returns its
// field set and declaration position.
func lookupStruct(pkg *types.Package, name string) (*types.Struct, token.Pos) {
	obj, _ := pkg.Scope().Lookup(name).(*types.TypeName)
	if obj == nil {
		return nil, token.NoPos
	}
	st, _ := obj.Type().Underlying().(*types.Struct)
	return st, obj.Pos()
}

// importedPackage finds a direct or transitive import by path.
func importedPackage(pkg *types.Package, path string) *types.Package {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Package
	find = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if imp.Path() == path {
				return imp
			}
			if found := find(imp); found != nil {
				return found
			}
		}
		return nil
	}
	return find(pkg)
}

// checkContract verifies one contract struct, qualified name qual,
// against its roles: every field must be referenced by each role's
// functions or be derived. For a struct of another package only the
// exported fields are checked (unexported ones are reached through
// accessors and checked by the accessor-completeness pass in their own
// package).
func checkContract(pass *Pass, c snapContract, st *types.Struct, structPos token.Pos, qual, display string) {
	fieldSet := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fieldSet[st.Field(i)] = true
	}
	for _, role := range c.roles {
		covered := map[*types.Var]bool{}
		freshOnly := map[*types.Var]bool{}
		for _, name := range role.funcs {
			fns := pass.index.lookup(name)
			if len(fns) == 0 {
				pass.Reportf(structPos, "snapshot contract for %s: %s function %s not found in this package — the triple and the contract table (internal/analysis/snapshotcomplete.go) must stay in sync", display, role.name, name)
			}
			for _, fn := range fns {
				collectFieldRefs(pass.TypesInfo, fn.decl, st, fieldSet, covered, freshOnly)
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if (c.pkgPath != "" && !f.Exported()) || covered[f] || pass.Facts.Has("snap.derived:"+qual+"."+f.Name()) {
				continue
			}
			pos := f.Pos()
			if pos == token.NoPos {
				pos = structPos
			}
			if freshOnly[f] {
				pass.Reportf(pos, "field %s of %s is set by its %s functions (%s) only in the branch that allocates a fresh %s: recycled storage keeps its stale value — assign it on the shared path",
					f.Name(), display, role.name, strings.Join(role.funcs, "/"), display)
				continue
			}
			pass.Reportf(pos, "field %s of %s is not referenced by its %s functions (%s): cover it in the snapshot triple or mark it %s <reason>",
				f.Name(), display, role.name, strings.Join(role.funcs, "/"), MarkerDerived)
		}
	}
}

// collectFieldRefs records in covered every field of fieldSet referenced
// in the function body — selectors, composite-literal keys, anything the
// type-checker resolved to the field object — outside the branches that
// allocate a fresh st; references inside those go to freshOnly.
func collectFieldRefs(info *types.Info, fd *ast.FuncDecl, st *types.Struct, fieldSet, covered, freshOnly map[*types.Var]bool) {
	var walk func(root ast.Node, into map[*types.Var]bool)
	walk = func(root ast.Node, into map[*types.Var]bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if allocatesFresh(info, n.Body, st) {
					if n.Init != nil {
						walk(n.Init, into)
					}
					walk(n.Cond, into)
					walk(n.Body, freshOnly)
					if n.Else != nil {
						walk(n.Else, into)
					}
					return false
				}
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && fieldSet[v] {
					into[v] = true
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok && fieldSet[v] {
						into[v] = true
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, covered)
}

// allocatesFresh reports whether one of the block's own statements
// assigns a whole st, or a pointer to one, to a plain variable: the
// shape of "no storage was offered for reuse, allocate some".
func allocatesFresh(info *types.Info, body *ast.BlockStmt, st *types.Struct) bool {
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			t := info.TypeOf(id)
			if t == nil {
				continue
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if t.Underlying() == st {
				return true
			}
		}
	}
	return false
}

// checkAccessors runs the accessor-completeness mode: every unexported
// field of the listed structs must be read and written by at least one
// exported function each, or carry //noc:derived. Reads and writes are
// classified syntactically: assignment/inc-dec targets and keyed
// composite-literal entries are writes, every other resolved reference
// is a read.
func checkAccessors(pass *Pass, base string, structNames []string) {
	owner := map[*types.Var]string{} // field -> owning struct name
	var ordered []*types.Var
	for _, name := range structNames {
		st, _ := lookupStruct(pass.Pkg, name)
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !f.Exported() {
				owner[f] = name
				ordered = append(ordered, f)
			}
		}
	}
	if len(ordered) == 0 {
		return
	}

	info := pass.TypesInfo
	reads := map[*types.Var]bool{}
	writes := map[*types.Var]bool{}
	writeNodes := map[ast.Node]bool{} // exact nodes consumed as write targets
	// write records the tracked field an assignment target writes — the
	// outermost field on its path (x.f[i] = v writes f) — and reports it.
	write := func(target ast.Expr) *types.Var {
		fields, root := lvalue(info, target)
		var v *types.Var
		var node ast.Node
		if len(fields) > 0 {
			v, node = fields[0].v, fields[0].sel
		} else if rv, ok := info.Uses[root].(*types.Var); ok && rv.IsField() {
			v, node = rv, root
		}
		if owner[v] == "" {
			return nil
		}
		writes[v] = true
		writeNodes[node] = true
		return v
	}
	for _, fn := range pass.index.funcs {
		if !fn.prod || !fn.decl.Name.IsExported() {
			continue
		}
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if v := write(lhs); v != nil && n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						reads[v] = true // compound assignment reads too
					}
				}
			case *ast.IncDecStmt:
				if v := write(n.X); v != nil {
					reads[v] = true
				}
			case *ast.KeyValueExpr: // a composite-literal entry
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && owner[v] != "" {
						writes[v] = true
						writeNodes[id] = true
					}
				}
			}
			return true
		})
		// Second sweep: everything resolved to a tracked field that was
		// not consumed as a write target counts as a read.
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			if writeNodes[n] {
				return true
			}
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && owner[v] != "" {
					reads[v] = true
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v := sel.Obj().(*types.Var); owner[v] != "" {
						reads[v] = true
					}
				}
			}
			return true
		})
	}

	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })
	for _, v := range ordered {
		if pass.Facts.Has("snap.derived:" + base + "." + owner[v] + "." + v.Name()) {
			continue
		}
		var missing string
		switch {
		case !reads[v] && !writes[v]:
			missing = "read or written"
		case !reads[v]:
			missing = "read"
		case !writes[v]:
			missing = "written"
		default:
			continue
		}
		pass.Reportf(v.Pos(), "unexported field %s of %s.%s is never %s by an exported function: the snapshot triple can only reach it through accessors — add one or mark it %s <reason>",
			v.Name(), base, owner[v], missing, MarkerDerived)
	}
}

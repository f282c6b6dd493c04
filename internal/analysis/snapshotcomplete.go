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

// snapOwner is one contract struct checked against its roles.
type snapOwner struct {
	typeName string
	roles    []snapRole
}

// snapExtern is a struct in an imported package whose exported fields
// this package's triple serializes.
type snapExtern struct {
	pkgPath  string
	typeName string
	roles    []snapRole
}

// snapContracts maps a package to its snapshot contracts. The function
// names are the triple as implemented; renaming one is a contract change
// and must be mirrored here.
var snapContracts = map[string]struct {
	owners  []snapOwner
	externs []snapExtern
}{
	"gonoc/internal/core": {
		owners: []snapOwner{
			{typeName: "Router", roles: []snapRole{
				{name: "save", funcs: []string{"SaveStateInto", "saveVC"}},
				{name: "restore", funcs: []string{"RestoreState", "restoreVC"}},
				{name: "canonical", funcs: []string{"AppendCanonical"}},
			}},
			{typeName: "RouterState", roles: []snapRole{
				{name: "save", funcs: []string{"SaveStateInto", "saveVC"}},
				{name: "restore", funcs: []string{"RestoreState", "restoreVC"}},
			}},
		},
		externs: []snapExtern{
			{pkgPath: "gonoc/internal/vc", typeName: "VC", roles: []snapRole{
				{name: "save", funcs: []string{"saveVC"}},
				{name: "restore", funcs: []string{"restoreVC"}},
				{name: "canonical", funcs: []string{"AppendCanonical"}},
			}},
		},
	},
	"gonoc/internal/noc": {
		owners: []snapOwner{
			{typeName: "Network", roles: []snapRole{
				{name: "save", funcs: []string{"SnapshotInto", "fill", "saveNI"}},
				{name: "restore", funcs: []string{"Restore", "restoreNI"}},
				{name: "canonical", funcs: []string{"AppendCanonical", "appendCanonicalNI", "appendCanonicalWindows"}},
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
	},
}

// accessorStructs lists, per state-component package, the structs whose
// unexported fields the core/noc triple reaches through accessors.
var accessorStructs = map[string][]string{
	"gonoc/internal/vc":       {"VC"},
	"gonoc/internal/arbiter":  {"RoundRobin", "Bypassed"},
	"gonoc/internal/crossbar": {"Baseline", "Protected"},
}

func runSnapshotComplete(pass *Pass) error {
	if strings.HasSuffix(pass.PkgPath, "_test") {
		return nil
	}
	base := basePkgPath(pass.PkgPath)
	derived := collectDerived(pass)
	pass.Facts.Set("snap.analyzed:"+base, "")

	if contract, ok := snapContracts[base]; ok {
		decls := snapFuncDecls(pass)
		for _, owner := range contract.owners {
			st, pos := lookupStruct(pass.Pkg, pass.Files, owner.typeName)
			if st == nil {
				continue // fixture subset: struct not modeled
			}
			checkOwner(pass, owner, st, pos, decls, func(f *types.Var) (string, bool) {
				r, ok := derived[f]
				return r, ok
			}, owner.typeName, false)
		}
		for _, ext := range contract.externs {
			if !pass.Facts.Has("snap.analyzed:" + ext.pkgPath) {
				continue // dependency not in this run: derived facts unavailable
			}
			imp := importedPackage(pass.Pkg, ext.pkgPath)
			if imp == nil {
				continue
			}
			obj, _ := imp.Scope().Lookup(ext.typeName).(*types.TypeName)
			if obj == nil {
				continue
			}
			st, _ := obj.Type().Underlying().(*types.Struct)
			if st == nil {
				continue
			}
			qual := ext.pkgPath + "." + ext.typeName
			checkOwner(pass, snapOwner{typeName: qual, roles: ext.roles}, st, obj.Pos(), decls,
				func(f *types.Var) (string, bool) {
					return pass.Facts.Get("snap.derived:" + qual + "." + f.Name())
				}, qual, true)
		}
	}

	if structs, ok := accessorStructs[base]; ok {
		checkAccessors(pass, structs, derived)
	}
	return nil
}

// collectDerived gathers the package's //noc:derived fields, reporting
// reason-less markers, and exports each as a fact keyed by its qualified
// name so dependent packages' passes can consult it.
func collectDerived(pass *Pass) map[*types.Var]string {
	out := map[*types.Var]string{}
	base := basePkgPath(pass.PkgPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				reason, found := markerReason(field.Doc, MarkerDerived)
				if !found {
					reason, found = markerReason(field.Comment, MarkerDerived)
				}
				if !found {
					continue
				}
				if reason == "" {
					pass.Reportf(field.Pos(), "%s requires a reason: \"%s <why this field sits outside the snapshot triple>\"", MarkerDerived, MarkerDerived)
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[obj] = reason
						pass.Facts.Set("snap.derived:"+base+"."+ts.Name.Name+"."+name.Name, reason)
					}
				}
			}
			return true
		})
	}
	return out
}

// snapFuncDecls indexes the package's production function declarations
// by name (methods and plain functions alike — the triple's names are
// unique within their packages).
func snapFuncDecls(pass *Pass) map[string][]*ast.FuncDecl {
	out := map[string][]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out[fd.Name.Name] = append(out[fd.Name.Name], fd)
			}
		}
	}
	return out
}

// lookupStruct finds a named struct type in the package and returns its
// field set and declaration position.
func lookupStruct(pkg *types.Package, files []*ast.File, name string) (*types.Struct, token.Pos) {
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

// checkOwner verifies one contract struct against its roles: every field
// must be referenced by each role's functions or be derived. For extern
// structs only exported fields are checked (unexported ones are reached
// through accessors and checked by the accessor-completeness pass in
// their own package).
func checkOwner(pass *Pass, owner snapOwner, st *types.Struct, structPos token.Pos,
	decls map[string][]*ast.FuncDecl, derivedReason func(*types.Var) (string, bool),
	display string, exportedOnly bool) {

	fieldSet := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fieldSet[st.Field(i)] = true
	}
	for _, role := range owner.roles {
		covered := map[*types.Var]bool{}
		freshOnly := map[*types.Var]bool{}
		for _, name := range role.funcs {
			fds, ok := decls[name]
			if !ok {
				pass.Reportf(structPos, "snapshot contract for %s: %s function %s not found in this package — the triple and the contract table (internal/analysis/snapshotcomplete.go) must stay in sync", display, role.name, name)
				continue
			}
			for _, fd := range fds {
				collectFieldRefs(pass.TypesInfo, fd, st, fieldSet, covered, freshOnly)
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if exportedOnly && !f.Exported() {
				continue
			}
			if covered[f] {
				continue
			}
			if _, ok := derivedReason(f); ok {
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
func checkAccessors(pass *Pass, structNames []string, derived map[*types.Var]string) {
	fieldSet := map[*types.Var]string{} // field -> owning struct name
	type fieldRec struct {
		v     *types.Var
		owner string
	}
	var ordered []fieldRec
	for _, name := range structNames {
		st, _ := lookupStruct(pass.Pkg, pass.Files, name)
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Exported() {
				continue
			}
			fieldSet[f] = name
			ordered = append(ordered, fieldRec{f, name})
		}
	}
	if len(fieldSet) == 0 {
		return
	}

	reads := map[*types.Var]bool{}
	writes := map[*types.Var]bool{}
	writeNodes := map[ast.Node]bool{} // exact nodes consumed as write targets
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if v, node := fieldWriteTarget(pass.TypesInfo, lhs); v != nil && fieldSet[v] != "" {
							writes[v] = true
							writeNodes[node] = true
							if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
								reads[v] = true // compound assignment reads too
							}
						}
					}
				case *ast.IncDecStmt:
					if v, node := fieldWriteTarget(pass.TypesInfo, n.X); v != nil && fieldSet[v] != "" {
						writes[v] = true
						reads[v] = true
						writeNodes[node] = true
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						id, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && fieldSet[v] != "" {
							writes[v] = true
							writeNodes[id] = true
						}
					}
				}
				return true
			})
			// Second sweep: everything resolved to a tracked field that
			// was not consumed as a write target counts as a read.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if writeNodes[n] {
						return true
					}
					if v, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && fieldSet[v] != "" {
						reads[v] = true
					}
				case *ast.SelectorExpr:
					if writeNodes[n] {
						return true
					}
					if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
						if v, ok := sel.Obj().(*types.Var); ok && fieldSet[v] != "" && !writeNodes[n] {
							reads[v] = true
						}
					}
				}
				return true
			})
		}
	}

	sort.Slice(ordered, func(i, j int) bool { return ordered[i].v.Pos() < ordered[j].v.Pos() })
	for _, rec := range ordered {
		if _, ok := derived[rec.v]; ok {
			continue
		}
		var missing string
		switch {
		case !reads[rec.v] && !writes[rec.v]:
			missing = "read or written"
		case !reads[rec.v]:
			missing = "read"
		case !writes[rec.v]:
			missing = "written"
		default:
			continue
		}
		pass.Reportf(rec.v.Pos(), "unexported field %s of %s.%s is never %s by an exported function: the snapshot triple can only reach it through accessors — add one or mark it %s <reason>",
			rec.v.Name(), basePkgPath(pass.PkgPath), rec.owner, missing, MarkerDerived)
	}
}

// fieldWriteTarget resolves an assignment target to the outermost struct
// field it writes and the AST node naming it: x.f[i] = v writes f.
func fieldWriteTarget(info *types.Info, expr ast.Expr) (*types.Var, ast.Node) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v, ast.Node(e)
				}
			}
			expr = e.X
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && v.IsField() {
				return v, ast.Node(e)
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

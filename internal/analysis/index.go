package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pkgIndex is the structure of one package that the analyzers share:
// its functions with their markers, the markers on its struct fields,
// and the static call graph between its functions. runOn builds it once
// per package — parsing every //noc: directive against markerGrammar on
// the way — and hands it to every pass.
type pkgIndex struct {
	// funcs is every function declaration with a body, in source order.
	// Declarations without one (assembly stubs) have no code to check.
	funcs []*funcInfo
	// fields is every struct field carrying a marker, in source order;
	// fieldMarks holds the same markers by field object.
	fields     []*fieldInfo
	fieldMarks map[*types.Var]markerSet
	// prodFiles are the package's files other than _test.go files.
	prodFiles []*ast.File
	// malformed are the //noc: directives the grammar rejects.
	malformed []Diagnostic
}

// funcInfo is one function declaration.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
	// name is the display name: "Type.Method" or "function".
	name    string
	prod    bool // declared outside _test.go files
	markers markerSet
	// calls are the static calls to the package's own functions, in
	// source order.
	calls []call
}

// call is one static in-package call.
type call struct {
	callee *funcInfo
	pos    token.Pos
	// inLitOrPanic: the call sits in a function literal or a panic
	// argument. hotpathalloc does not follow such calls: a closure is
	// its own offense, and a dying simulator may allocate.
	inLitOrPanic bool
}

// fieldInfo is one struct field declaration that carries markers.
type fieldInfo struct {
	field *ast.Field
	// owner names the declared struct type; "" inside an anonymous one.
	owner   string
	markers markerSet
}

// newIndex builds the index of one loaded package.
func newIndex(pkg *Package) *pkgIndex {
	ix := &pkgIndex{fieldMarks: map[*types.Var]markerSet{}}
	info := pkg.TypesInfo
	byObj := map[*types.Func]*funcInfo{}
	// mark parses the //noc: lines of a comment group sitting on a
	// declaration of kind on ("" for anything else) into ms, reporting
	// the lines the grammar rejects.
	mark := func(cg *ast.CommentGroup, on string, ms markerSet) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			marker, reason, problem := parseMarker(c.Text, on)
			if problem != "" {
				ix.malformed = append(ix.malformed, Diagnostic{Pos: pkg.Fset.Position(c.Pos()), Analyzer: "nocvet", Message: problem})
			} else if marker != "" && !ms.has(marker) {
				ms[marker] = reason
			}
		}
	}
	for _, f := range pkg.Files {
		prod := !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
		if prod {
			ix.prodFiles = append(ix.prodFiles, f)
		}
		onDecl := map[*ast.CommentGroup]bool{}
		owners := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				ms := markerSet{}
				mark(n.Doc, onFunc, ms)
				onDecl[n.Doc] = true
				if obj, ok := info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
					fn := &funcInfo{decl: n, obj: obj, name: n.Name.Name, prod: prod, markers: ms}
					if n.Recv != nil {
						fn.name = recvTypeName(n) + "." + n.Name.Name
					}
					ix.funcs = append(ix.funcs, fn)
					byObj[obj] = fn
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					owners[st] = n.Name.Name
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					fi := &fieldInfo{field: field, owner: owners[n], markers: markerSet{}}
					mark(field.Doc, onField, fi.markers)
					mark(field.Comment, onField, fi.markers)
					onDecl[field.Doc], onDecl[field.Comment] = true, true
					if len(fi.markers) == 0 {
						continue
					}
					ix.fields = append(ix.fields, fi)
					for _, name := range field.Names {
						if v, ok := info.Defs[name].(*types.Var); ok {
							ix.fieldMarks[v] = fi.markers
						}
					}
				}
			}
			return true
		})
		// A //noc: line anywhere else marks nothing.
		for _, cg := range f.Comments {
			if !onDecl[cg] {
				mark(cg, "", nil)
			}
		}
	}

	var scan func(fn *funcInfo, root ast.Node, inLitOrPanic bool)
	scan = func(fn *funcInfo, root ast.Node, inLitOrPanic bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if !inLitOrPanic {
					scan(fn, n.Body, true)
					return false
				}
			case *ast.CallExpr:
				if callee := byObj[staticCallee(info, n)]; callee != nil {
					fn.calls = append(fn.calls, call{callee, n.Pos(), inLitOrPanic})
				} else if !inLitOrPanic && isBuiltinCall(info, n, "panic") {
					for _, arg := range n.Args {
						scan(fn, arg, true)
					}
					return false
				}
			}
			return true
		})
	}
	for _, fn := range ix.funcs {
		scan(fn, fn.decl.Body, false)
	}
	return ix
}

// lookup returns the package's production functions called name — a
// function or method name ("saveVC", "SaveStateInto"), or a method
// qualified by its receiver type ("Kind.String") — in source order.
func (ix *pkgIndex) lookup(name string) []*funcInfo {
	var out []*funcInfo
	for _, fn := range ix.funcs {
		if fn.prod && (fn.decl.Name.Name == name || fn.name == name) {
			out = append(out, fn)
		}
	}
	return out
}

// reached is a function reached from a set of roots, with the first
// root, in position order, that reaches it.
type reached struct{ fn, root *funcInfo }

// reach walks the call graph from roots, given in position order, and
// returns every function reached, in position order. Calls in function
// literals and panic arguments are followed only when all is set.
func (ix *pkgIndex) reach(roots []*funcInfo, all bool) []reached {
	rootOf := map[*funcInfo]*funcInfo{}
	for _, root := range roots {
		stack := []*funcInfo{root}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rootOf[fn] != nil {
				continue
			}
			rootOf[fn] = root
			for _, c := range fn.calls {
				if all || !c.inLitOrPanic {
					stack = append(stack, c.callee)
				}
			}
		}
	}
	var out []reached
	for _, fn := range ix.funcs {
		if root := rootOf[fn]; root != nil {
			out = append(out, reached{fn, root})
		}
	}
	return out
}

// recvTypeName extracts the receiver's type name for display.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// staticCallee resolves a call expression to the function or method
// object it statically invokes, or nil for dynamic calls, conversions
// and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// fieldStep is one struct-field selection on an assignment target.
type fieldStep struct {
	v   *types.Var
	sel *ast.SelectorExpr
}

// lvalue takes an assignment target apart. It peels parens, index, star
// and selector steps and returns the struct fields the target writes
// through, outermost first (x.f[i].g = v writes g, then f), and the
// identifier the target is rooted at — nil when a call or any other
// expression roots it.
func lvalue(info *types.Info, expr ast.Expr) (fields []fieldStep, root *ast.Ident) {
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
				fields = append(fields, fieldStep{sel.Obj().(*types.Var), e})
			}
			expr = e.X
		case *ast.Ident:
			return fields, e
		default:
			return fields, nil
		}
	}
}

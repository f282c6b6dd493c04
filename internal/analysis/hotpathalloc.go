package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc turns the AllocsPerRun==0 benchmark pin into a static
// proof.
//
// PR 6's scale-out contract says the steady-state step loop allocates
// nothing: BenchmarkStep's TestStepZeroAllocSteadyState pins
// AllocsPerRun to zero. But a benchmark only sees the paths its traffic
// pattern exercises; a fresh allocation on a rare branch (a fault
// branch, a particular VC state) survives until a profile regresses. The
// analyzer makes the contract structural: functions marked
// //noc:hot-path are roots, and every function statically reachable from
// a root must be free of allocation-inducing constructs:
//
//   - make with a non-constant size, and make of maps/channels
//   - growing append — append whose target differs from its source;
//     self-append (x = append(x, ...) / x = append(x[:0], ...)) is the
//     sanctioned pre-capped-buffer idiom and is allowed
//   - slice, map and &-composite literals (plain value struct literals
//     stay on the stack and are allowed)
//   - function literals (closure capture) and go statements
//   - string concatenation and string<->slice conversions
//   - interface boxing: passing, assigning or returning a non-pointer
//     concrete value as an interface
//   - map iteration (hidden iterator, and nondeterministic order)
//   - dynamic calls — function values and interface methods — which the
//     analyzer cannot see through; waive the call if every dynamic
//     target is known clean
//   - calls into allocation-heavy stdlib packages (fmt, strings,
//     sort, ...); other stdlib calls (sync, sync/atomic, math) are
//     assumed clean
//
// Arguments to panic are exempt: a panicking simulator is already dead,
// so its diagnostics may allocate.
//
// Verdicts propagate: each function's transitive summary ("clean" or the
// first offense with its location) is exported as an "alloc:" fact, so a
// hot-path root in internal/noc proves the internal/core and
// internal/obs functions it calls, not just its own body. Findings are
// reported at the offending construct with the root that reaches it.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "prove functions reachable from //noc:hot-path roots contain no allocation-inducing constructs",
	Run:  runHotPathAlloc,
}

// allocOffense is one allocation-inducing construct.
type allocOffense struct {
	pos    token.Pos
	detail string
}

// allocStdlibDeny lists stdlib packages whose entry points allocate as a
// matter of course. Calls into any other non-gonoc package are assumed
// allocation-free (sync, sync/atomic, math, math/bits, ...).
var allocStdlibDeny = map[string]bool{
	"bytes": true, "errors": true, "fmt": true, "io": true,
	"log": true, "os": true, "reflect": true, "regexp": true,
	"sort": true, "strconv": true, "strings": true,
}

func allocDeniedStdlib(path string) bool {
	return allocStdlibDeny[path] || strings.HasPrefix(path, "encoding/")
}

func runHotPathAlloc(pass *Pass) error {
	if strings.HasSuffix(pass.PkgPath, "_test") {
		return nil
	}

	// The production functions' own offenses; the call edges between
	// them are the index's, minus calls in closures and panic arguments.
	var prod []*funcInfo
	own := map[*funcInfo][]allocOffense{}
	for _, fn := range pass.index.funcs {
		if fn.prod {
			prod = append(prod, fn)
			own[fn] = scanAllocBody(pass, fn)
		}
	}

	// Transitive summaries: a function is clean iff its own body and
	// every in-package callee is clean. Cycles resolve optimistically —
	// the offense, if any, is attributed to the function that owns it.
	memo := map[*funcInfo]*allocOffense{}
	state := map[*funcInfo]int{} // 0 new, 1 visiting, 2 done
	var summarize func(fn *funcInfo) *allocOffense
	summarize = func(fn *funcInfo) *allocOffense {
		if state[fn] == 2 {
			return memo[fn]
		}
		if state[fn] == 1 {
			return nil
		}
		state[fn] = 1
		var verdict *allocOffense
		if len(own[fn]) > 0 {
			verdict = &own[fn][0]
		} else {
			for _, c := range fn.calls {
				if c.inLitOrPanic {
					continue
				}
				if sub := summarize(c.callee); sub != nil {
					verdict = &allocOffense{pos: c.pos, detail: fmt.Sprintf(
						"call to %s which is not allocation-free (%s: %s)",
						c.callee.name, pass.Fset.Position(sub.pos), sub.detail)}
					break
				}
			}
		}
		state[fn] = 2
		memo[fn] = verdict
		return verdict
	}
	var roots []*funcInfo
	for _, fn := range prod {
		if v := summarize(fn); v != nil {
			pos := pass.Fset.Position(v.pos)
			pass.Facts.Set("alloc:"+fn.obj.FullName(), fmt.Sprintf("%s: %s", pos, v.detail))
		} else {
			pass.Facts.Set("alloc:"+fn.obj.FullName(), "clean")
		}
		if fn.markers.has(MarkerHotPath) {
			roots = append(roots, fn)
		}
	}

	// Report every reached function's own offenses, each exactly once.
	for _, r := range pass.index.reach(roots, false) {
		for _, o := range own[r.fn] {
			where := r.fn.name
			if r.fn != r.root {
				where = fmt.Sprintf("%s, reachable from //noc:hot-path root %s", r.fn.name, r.root.name)
			}
			pass.Reportf(o.pos, "%s (in %s)", o.detail, where)
		}
	}
	return nil
}

// scanAllocBody walks one function body collecting its allocation
// offenses. Offenses covered by a //nocvet:ignore directive are consumed
// here — before they reach summaries — so a waived construct is excused
// in every caller, not just at its own line.
func scanAllocBody(pass *Pass, fn *funcInfo) []allocOffense {
	var own []allocOffense
	res := fn.obj.Type().(*types.Signature).Results()
	offend := func(pos token.Pos, format string, args ...any) {
		if !pass.Waived(pos) {
			own = append(own, allocOffense{pos: pos, detail: fmt.Sprintf(format, args...)})
		}
	}
	selfAppendOK := map[*ast.CallExpr]bool{}

	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return scanAllocCall(pass, n, offend, selfAppendOK)
		case *ast.FuncLit:
			offend(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				offend(n.Pos(), "slice literal allocates")
			case *types.Map:
				offend(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					offend(n.Pos(), "&composite-literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(n)) && !isConstExpr(pass.TypesInfo, n) {
				offend(n.Pos(), "string concatenation allocates")
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); ok {
				offend(n.Pos(), "map iteration in the hot path (hidden iterator, nondeterministic order)")
			}
		case *ast.GoStmt:
			offend(n.Pos(), "go statement allocates a goroutine")
		case *ast.AssignStmt:
			scanAllocAssign(pass, n, offend, selfAppendOK)
		case *ast.ReturnStmt:
			if res != nil && len(n.Results) == res.Len() {
				for i, e := range n.Results {
					checkBoxing(pass, e, res.At(i).Type(), "returning", offend)
				}
			}
		}
		return true
	})
	return own
}

// scanAllocAssign handles the two assignment-specific checks: blessing
// self-appends and flagging interface boxing on plain assignments.
func scanAllocAssign(pass *Pass, n *ast.AssignStmt, offend func(token.Pos, string, ...any), selfAppendOK map[*ast.CallExpr]bool) {
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinCall(pass.TypesInfo, call, "append") && len(call.Args) > 0 {
				src := call.Args[0]
				if s, ok := src.(*ast.SliceExpr); ok {
					src = s.X
				}
				if types.ExprString(n.Lhs[i]) == types.ExprString(src) {
					selfAppendOK[call] = true
				}
			}
			if n.Tok == token.ASSIGN {
				lt := pass.TypesInfo.TypeOf(n.Lhs[i])
				if lt != nil {
					checkBoxing(pass, rhs, lt, "assigning", offend)
				}
			}
		}
	}
}

// scanAllocCall classifies one call expression. The return value is the
// "descend into children" answer for ast.Inspect: panic arguments are
// exempt and not descended into.
func scanAllocCall(pass *Pass, call *ast.CallExpr, offend func(token.Pos, string, ...any), selfAppendOK map[*ast.CallExpr]bool) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() { // conversion
		to := pass.TypesInfo.TypeOf(call.Fun)
		from := pass.TypesInfo.TypeOf(call.Args[0])
		if isStringSliceConv(to, from) {
			offend(call.Pos(), "%s -> %s conversion allocates", types.TypeString(from, nil), types.TypeString(to, nil))
		}
		return true
	}
	if ok && tv.IsBuiltin() {
		name := builtinName(call.Fun)
		switch name {
		case "panic":
			return false // a dying simulator may allocate its diagnostics
		case "append":
			if !selfAppendOK[call] {
				offend(call.Pos(), "append into a different slice allocates: only self-append (x = append(x, ...), x = append(x[:0], ...)) is the sanctioned pre-capped-buffer idiom")
			}
		case "make":
			switch pass.TypesInfo.TypeOf(call).Underlying().(type) {
			case *types.Map:
				offend(call.Pos(), "make(map) allocates")
			case *types.Chan:
				offend(call.Pos(), "make(chan) allocates")
			default:
				for _, arg := range call.Args[1:] {
					if !isConstExpr(pass.TypesInfo, arg) {
						offend(call.Pos(), "make with non-constant size allocates")
						break
					}
				}
			}
		}
		return true
	}

	callee := staticCallee(pass.TypesInfo, call)
	if callee == nil {
		offend(call.Pos(), "dynamic call through a function value cannot be proven allocation-free")
		return true
	}
	if sig, ok := callee.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			offend(call.Pos(), "dynamic dispatch through interface method %s cannot be proven allocation-free", callee.Name())
			return true
		}
		checkCallBoxing(pass, call, sig, offend)
	}
	switch {
	case callee.Pkg() == nil:
		// universe-scope (error.Error on unnamed types etc.): ignore
	case callee.Pkg() == pass.Pkg:
		// an in-package call: a call-graph edge, followed by summaries
	case strings.HasPrefix(callee.Pkg().Path(), "gonoc/"):
		if v, ok := pass.Facts.Get("alloc:" + callee.FullName()); ok {
			if v != "clean" {
				offend(call.Pos(), "call to %s which is not allocation-free (%s)", callee.FullName(), v)
			}
		} else {
			// No fact means the dependency was not analyzed in this run
			// (partial load, single-package fixture mode): assume clean,
			// but consume any waiver on the call so a directive that
			// fires in whole-tree runs is not reported stale here.
			pass.Waived(call.Pos())
		}
	default:
		if allocDeniedStdlib(callee.Pkg().Path()) {
			offend(call.Pos(), "call into %s (allocating stdlib package)", callee.Pkg().Path())
		}
	}
	return true
}

// checkCallBoxing flags arguments boxed into interface parameters.
func checkCallBoxing(pass *Pass, call *ast.CallExpr, sig *types.Signature, offend func(token.Pos, string, ...any)) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, arg, pt, "passing", offend)
	}
}

// checkBoxing flags converting a non-pointer-shaped concrete value into
// an interface: that conversion heap-allocates the value's box. Pointer,
// map, chan and func values are stored in the interface word directly.
func checkBoxing(pass *Pass, expr ast.Expr, target types.Type, verb string, offend func(token.Pos, string, ...any)) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	et := pass.TypesInfo.TypeOf(expr)
	if et == nil || types.IsInterface(et.Underlying()) {
		return
	}
	if b, ok := et.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch et.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	}
	offend(expr.Pos(), "%s %s as %s boxes the value on the heap", verb, types.TypeString(et, nil), types.TypeString(target, nil))
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsBuiltin() && builtinName(call.Fun) == name
}

// builtinName unwraps the identifier naming a builtin in call position.
func builtinName(fun ast.Expr) string {
	if id, ok := ast.Unparen(fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the type-checker folded expr to a constant.
func isConstExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	return ok && tv.Value != nil
}

// isStringSliceConv reports whether the conversion crosses the
// string/slice boundary (string([]byte), []byte(s), []rune(s), ...),
// which copies and therefore allocates.
func isStringSliceConv(to, from types.Type) bool {
	_, toSlice := to.Underlying().(*types.Slice)
	_, fromSlice := from.Underlying().(*types.Slice)
	return (isStringType(to) && fromSlice) || (toSlice && isStringType(from))
}

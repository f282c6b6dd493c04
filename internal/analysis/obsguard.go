package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsGuard enforces the zero-overhead-when-nil observability contract
// from PR 1.
//
// Hot-path packages hold pre-bound obs handles (*obs.RouterObs,
// *obs.NodeObs, or the raw *obs.Observer / *obs.Metrics / *obs.Tracer /
// *obs.Windows / *obs.FlightRecorder) that are nil when observability is
// disabled — the common case, which
// must cost nothing. Every method call on such a handle must therefore
// be dominated by a nil check of the same expression:
//
//	if o := r.obs; o != nil {
//		o.RCCompute(...)
//	}
//
// The analyzer tracks nil facts through if conditions (including && /
// || combinations) and early returns (`if o == nil { return }`), keyed
// by the receiver's printed expression. Receivers that are themselves
// call results (n.Obs().Emit(...)) can never be proven non-nil; bind
// them to a variable first.
//
// Test files are exempt: tests construct their observers explicitly, so
// a nil handle there is a test bug, not an overhead leak.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "flag obs handle method calls in hot-path packages that are not dominated by a nil check",
	Run:  runObsGuard,
}

// obsGuardedTypes are the obs types whose pointer receivers are nil when
// observability is off.
var obsGuardedTypes = map[string]bool{
	"Observer":       true,
	"RouterObs":      true,
	"NodeObs":        true,
	"Metrics":        true,
	"Tracer":         true,
	"Windows":        true,
	"FlightRecorder": true,
}

const obsPkgPath = "gonoc/internal/obs"

func runObsGuard(pass *Pass) error {
	if !inSimScope(pass) {
		return nil
	}
	g := &obsGuard{pass: pass}
	for _, fn := range pass.index.funcs {
		if fn.prod {
			g.stmts(fn.decl.Body.List, map[string]bool{})
		}
	}
	return nil
}

type obsGuard struct {
	pass *Pass
}

// stmts walks a statement list with env, the set of receiver expressions
// proven non-nil here, accumulating facts from early-return guards.
func (g *obsGuard) stmts(list []ast.Stmt, env map[string]bool) {
	env = copyEnv(env)
	for _, s := range list {
		g.stmt(s, env)
	}
}

func (g *obsGuard) stmt(s ast.Stmt, env map[string]bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			g.stmt(s.Init, env)
		}
		g.exprs(s.Cond, env)
		pos, neg := nilFacts(s.Cond)
		g.stmts(s.Body.List, union(env, pos))
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				g.stmts(e.List, union(env, neg))
			case *ast.IfStmt:
				g.stmt(e, union(env, neg))
			}
		}
		// `if o == nil { return }` proves o for the rest of the block.
		if terminates(s.Body.List) {
			for k := range neg {
				env[k] = true
			}
		}
	case *ast.BlockStmt:
		g.stmts(s.List, env)
	case *ast.ForStmt:
		if s.Init != nil {
			g.stmt(s.Init, env)
		}
		if s.Cond != nil {
			g.exprs(s.Cond, env)
		}
		if s.Post != nil {
			g.stmt(s.Post, copyEnv(env))
		}
		g.stmts(s.Body.List, env)
	case *ast.RangeStmt:
		g.exprs(s.X, env)
		g.stmts(s.Body.List, env)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.stmt(s.Init, env)
		}
		if s.Tag != nil {
			g.exprs(s.Tag, env)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				g.exprs(e, env)
			}
			g.stmts(cc.Body, env)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			g.stmt(s.Init, env)
		}
		g.stmt(s.Assign, env)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			g.stmts(cc.Body, env)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			g.exprs(e, env)
		}
		for _, e := range s.Lhs {
			g.exprs(e, env)
			g.invalidate(env, e)
		}
	case *ast.IncDecStmt:
		g.exprs(s.X, env)
		g.invalidate(env, s.X)
	case *ast.ExprStmt, *ast.ReturnStmt, *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.DeclStmt:
		g.exprs(s, env)
	case *ast.LabeledStmt:
		g.stmt(s.Stmt, env)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				g.stmt(cc.Comm, copyEnv(env))
			}
			g.stmts(cc.Body, env)
		}
	}
}

// exprs checks every method call on an obs handle inside the node
// against env; function literals inherit the surrounding facts.
func (g *obsGuard) exprs(node ast.Node, env map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.stmts(n.Body.List, env)
			return false
		case *ast.CallExpr:
			g.checkCall(n, env)
		}
		return true
	})
}

// checkCall reports a method call on an obs handle whose receiver is not
// proven non-nil.
func (g *obsGuard) checkCall(call *ast.CallExpr, env map[string]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := g.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	tname := obsHandleType(selection.Recv())
	if tname == "" {
		return
	}
	recv := types.ExprString(sel.X)
	if env[recv] {
		return
	}
	if _, isCall := ast.Unparen(sel.X).(*ast.CallExpr); isCall {
		g.pass.Reportf(call.Pos(), "call to (*obs.%s).%s on a call result: bind the handle to a variable and nil-check it (obs must be zero-overhead when disabled)", tname, sel.Sel.Name)
		return
	}
	g.pass.Reportf(call.Pos(), "call to (*obs.%s).%s not dominated by a nil check of %s: obs handles are nil when observability is off (guard with `if %s != nil`)", tname, sel.Sel.Name, recv, recv)
}

// obsHandleType returns the obs handle type name when t is a pointer to
// one of the guarded obs types, or "".
func obsHandleType(t types.Type) string {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath || !obsGuardedTypes[obj.Name()] {
		return ""
	}
	return obj.Name()
}

// nilFacts analyzes a condition and returns the receiver expressions
// proven non-nil when it is true (pos) and when it is false (neg).
func nilFacts(cond ast.Expr) (pos, neg map[string]bool) {
	pos, neg = map[string]bool{}, map[string]bool{}
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.NEQ:
			if s, ok := nilComparand(c); ok {
				pos[s] = true
			}
		case token.EQL:
			if s, ok := nilComparand(c); ok {
				neg[s] = true
			}
		case token.LAND:
			lp, _ := nilFacts(c.X)
			rp, _ := nilFacts(c.Y)
			pos = union(lp, rp)
		case token.LOR:
			_, ln := nilFacts(c.X)
			_, rn := nilFacts(c.Y)
			neg = union(ln, rn)
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			neg, pos = nilFacts(c.X)
		}
	}
	return pos, neg
}

// nilComparand returns the printed non-nil side of a comparison against
// nil, if the expression is such a comparison.
func nilComparand(b *ast.BinaryExpr) (string, bool) {
	if isNil(b.Y) && !isNil(b.X) {
		return types.ExprString(ast.Unparen(b.X)), true
	}
	if isNil(b.X) && !isNil(b.Y) {
		return types.ExprString(ast.Unparen(b.Y)), true
	}
	return "", false
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a statement list always leaves the
// enclosing block (return, branch, or panic).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func copyEnv(env map[string]bool) map[string]bool {
	out := make(map[string]bool, len(env))
	for k := range env {
		out[k] = true
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := copyEnv(a)
	for k := range b {
		out[k] = true
	}
	return out
}

// invalidate drops facts about the assigned expression's root identifier:
// reassignment may make a previously-checked handle nil again.
func (g *obsGuard) invalidate(env map[string]bool, target ast.Expr) {
	_, root := lvalue(g.pass.TypesInfo, target)
	if root == nil {
		return
	}
	for k := range env {
		if k == root.Name || hasRoot(k, root.Name) {
			delete(env, k)
		}
	}
}

// hasRoot reports whether printed expression k starts with the
// identifier root followed by a selector/index boundary.
func hasRoot(k, root string) bool {
	if len(k) <= len(root) || k[:len(root)] != root {
		return false
	}
	switch k[len(root)] {
	case '.', '[':
		return true
	}
	return false
}

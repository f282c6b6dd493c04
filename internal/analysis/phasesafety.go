package analysis

import (
	"go/ast"
	"go/token"
)

// PhaseSafety enforces the two-phase tick discipline that makes parallel
// stepping bit-exact (PR 2).
//
// Network.Step splits each cycle into a compute phase — sharded across
// workers, each node reading only last-cycle state — and a serial commit
// phase that applies all cross-node effects in canonical node order.
// Nothing but convention stops a future change from mutating committed
// state inside the compute phase, which would turn a deterministic
// simulation into a racy one that happens to pass small tests.
//
// The analyzer seeds from functions marked //noc:compute-phase (the
// compute shards), walks the package's static call graph, and reports:
//
//   - calls from compute-reachable code to functions marked
//     //noc:commit-only (the commit-side entry points);
//   - writes from compute-reachable code to struct fields marked
//     //noc:committed (committed cross-node state).
//
// The call graph covers direct calls and method calls resolved at
// compile time within the package, including function literals, which
// inherit their enclosing declaration's phase. Dynamic calls through
// stored function values or interfaces are not traced; keep phase
// boundaries out of such indirections.
var PhaseSafety = &Analyzer{
	Name: "phasesafety",
	Doc:  "flag commit-phase work (commit-only calls, committed-state writes) reachable from the compute phase",
	Run:  runPhaseSafety,
}

func runPhaseSafety(pass *Pass) error {
	var roots []*funcInfo
	for _, fn := range pass.index.funcs {
		if fn.markers.has(MarkerComputePhase) {
			roots = append(roots, fn)
		}
	}
	// A write reports the outermost committed field on the target's
	// path: `n.seqNext[node]++` writes field seqNext.
	write := func(pos token.Pos, target ast.Expr) {
		fields, _ := lvalue(pass.TypesInfo, target)
		for _, f := range fields {
			if pass.index.fieldMarks[f.v].has(MarkerCommitted) {
				pass.Reportf(pos, "compute-phase code writes committed field %s: committed state may only change in the commit phase", f.v.Name())
				return
			}
		}
	}
	for _, r := range pass.index.reach(roots, true) {
		if r.fn.markers.has(MarkerCommitOnly) {
			// The offending call edge is reported at the caller; flagging
			// the commit-only function's own body would be noise.
			continue
		}
		for _, c := range r.fn.calls {
			if c.callee.markers.has(MarkerCommitOnly) {
				pass.Reportf(c.pos, "compute-phase code calls commit-only %s: cross-node effects must wait for the commit phase (reachable from a %s root)", c.callee.obj.Name(), MarkerComputePhase)
			}
		}
		ast.Inspect(r.fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(n.Pos(), lhs)
				}
			case *ast.IncDecStmt:
				write(n.Pos(), n.X)
			}
			return true
		})
	}
	return nil
}

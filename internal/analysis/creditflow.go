package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// CreditFlow gives credit conservation a single audited mutation
// surface.
//
// The network-level invariant (noc.CheckInvariants, asserted per tick
// under the nocassert build tag) proves that for every link
//
//	credits + occupancy + in-flight flits + in-flight credits
//	  + pending grants = Depth
//
// That proof is only as strong as the set of places credits can change.
// This analyzer flags arithmetic mutation (++, --, +=, -=) of any credit
// counter — a variable or field whose name contains "credit" — in
// simulation packages, unless the enclosing function is marked
// //noc:credit-accessor. The accessors bundle the mutation with its
// overflow/underflow panic, so every credit movement is bounds-checked.
//
// Test files are exempt: tests legitimately model upstream credit loops
// of their own.
var CreditFlow = &Analyzer{
	Name: "creditflow",
	Doc:  "flag credit-counter arithmetic outside the //noc:credit-accessor surface",
	Run:  runCreditFlow,
}

func runCreditFlow(pass *Pass) error {
	if !inSimScope(pass) {
		return nil
	}
	// A mutation reports the outermost field on the target's path with
	// "credit" in its name (case-insensitive): r.credits[p][v] and
	// ni.credits[v] both match. Local variables are exempt — credit
	// counters live in router and NI state, and locals named over
	// credits are tallies, not the counters themselves.
	mutate := func(pos token.Pos, op token.Token, target ast.Expr) {
		fields, _ := lvalue(pass.TypesInfo, target)
		for _, f := range fields {
			if strings.Contains(strings.ToLower(f.v.Name()), "credit") {
				pass.Reportf(pos, "direct %s of credit counter %s outside a %s function: route credit changes through the audited accessors so conservation stays checkable", opWord(op), f.v.Name(), MarkerCreditAccessor)
				return
			}
		}
	}
	for _, fn := range pass.index.funcs {
		if !fn.prod || fn.markers.has(MarkerCreditAccessor) {
			continue
		}
		// Function literals do not inherit the accessor marker; they are
		// part of the enclosing function's body and checked with it.
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				mutate(n.Pos(), n.Tok, n.X)
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					for _, lhs := range n.Lhs {
						mutate(n.Pos(), n.Tok, lhs)
					}
				}
			}
			return true
		})
	}
	return nil
}

// opWord names the mutating operator in the finding.
func opWord(tok token.Token) string {
	switch tok {
	case token.INC:
		return "increment"
	case token.DEC:
		return "decrement"
	}
	return tok.String() // += or -=
}

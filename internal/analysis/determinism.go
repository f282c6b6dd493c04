package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism flags nondeterminism sources in simulation packages.
//
// The parallel stepping design (PR 2) promises bit-exact results at any
// worker count, and every experiment is reproducible from its seed. Both
// guarantees die silently the moment simulation code reads the wall
// clock, draws from the globally-seeded math/rand source, lets map
// iteration order leak into simulation state, or spawns its own
// goroutines. Each of those is flagged here:
//
//   - calls to (or references of) time.Now and time.Since;
//   - any use of math/rand's package-level generator (rand.Intn,
//     rand.Float64, rand.Seed, ...). Constructing a locally-seeded
//     generator (rand.New, rand.NewSource, rand.NewZipf) is allowed,
//     though gonoc code should prefer internal/rng;
//   - range statements over maps whose bodies write state declared
//     outside the loop (sort the keys and iterate those instead);
//   - go and select statements anywhere except functions marked
//     //noc:worker-pool in internal/noc — the sanctioned compute-phase
//     pool.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock time, global math/rand, order-dependent map iteration and unsanctioned goroutines in simulation packages",
	Run:  runDeterminism,
}

// globalRandAllowed are the math/rand package-level functions that build
// locally-seeded generators rather than touching the global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(pass *Pass) error {
	if !inSimScope(pass) {
		return nil
	}
	// Forbidden identifier uses: time.Now/Since and the global math/rand
	// surface. Checking Uses (not just calls) also catches references
	// like `fn := time.Now`.
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		// Package-level functions only; methods (e.g. (*rand.Rand).Intn)
		// have a receiver and are fine.
		if fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(id.Pos(), "use of time.%s in simulation code: time must come from sim.Cycle so runs are reproducible", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !globalRandAllowed[fn.Name()] {
				pass.Reportf(id.Pos(), "use of global math/rand (%s.%s): draw from a seeded internal/rng stream so runs are reproducible from their seed", fn.Pkg().Path(), fn.Name())
			}
		}
	}

	inNoc := basePkgPath(pass.PkgPath) == nocPackage
	for _, fn := range pass.index.funcs {
		pooled := inNoc && fn.markers.has(MarkerWorkerPool)
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !pooled {
					pass.Reportf(n.Pos(), "go statement outside the sanctioned worker pool: simulation code must not spawn goroutines (mark the compute pool with %s in internal/noc)", MarkerWorkerPool)
				}
			case *ast.SelectStmt:
				if !pooled {
					pass.Reportf(n.Pos(), "select statement outside the sanctioned worker pool: channel races break bit-exact stepping (mark the compute pool with %s in internal/noc)", MarkerWorkerPool)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags a range over a map whose body writes to state
// declared outside the loop: those writes observe Go's randomized map
// order, so the result depends on the iteration order.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Findings anchor at the range statement — the loop is what a
	// //nocvet:ignore directive suppresses — one per written variable
	// declared outside the loop (and its header).
	reported := map[string]bool{}
	write := func(target ast.Expr) {
		_, root := lvalue(pass.TypesInfo, target)
		v, ok := pass.TypesInfo.ObjectOf(root).(*types.Var)
		if !ok || (v.Pos() >= rng.Pos() && v.Pos() < rng.End()) || reported[v.Name()] {
			return
		}
		reported[v.Name()] = true
		pass.Reportf(rng.Pos(), "map iteration writes to %s declared outside the loop: iteration order is nondeterministic — sort the keys and range over the slice instead", v.Name())
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.SendStmt:
			write(n.Chan)
		}
		return true
	})
}

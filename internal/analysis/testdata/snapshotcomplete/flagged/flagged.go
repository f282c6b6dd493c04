// Fixture: snapshot-triple coverage gaps in the core contract structs.
// scratch is mutable state the triple never touches; RouterState.dropped
// is saved but not restored (deleting a field's restore assignment must
// fail the build); bad carries a reason-less //noc:derived.
package core

type Router struct {
	covered int
	scratch []int // want `field scratch of Router is not referenced by its save functions` // want `field scratch of Router is not referenced by its restore functions` // want `field scratch of Router is not referenced by its canonical functions`
	//noc:derived per-cycle scratch, rebuilt every tick
	derived []bool
	//noc:derived
	bad int // want `//noc:derived requires a reason`
}

type RouterState struct {
	covered int
	dropped int // want `field dropped of RouterState is not referenced by its restore functions \(RestoreState/restoreVC\)`
}

func (r *Router) SaveStateInto() *RouterState {
	return &RouterState{covered: saveVC(r.covered), dropped: r.bad}
}

func saveVC(g int) int { return g }

func (r *Router) RestoreState(s *RouterState) {
	r.covered = s.covered
	r.bad = restoreVC(0)
}

func restoreVC(g int) int { return g }

func (r *Router) AppendCanonical(b []byte) []byte {
	b = append(b, byte(r.covered), byte(r.bad))
	return b
}

// Fixture: snapshot-triple coverage gaps in the core contract structs.
// scratch is mutable state the triple never touches; RouterState.dropped
// is saved but not restored (the acceptance-contract tripwire: deleting
// a field's restore assignment must fail the build); vcState.lost is the
// same gap one level down; bad carries a reason-less //noc:derived.
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
	vcs     []vcState
}

type vcState struct {
	g    int
	lost bool // want `field lost of vcState is not referenced by its restore functions \(restoreVC\)`
}

func (r *Router) SaveStateInto() *RouterState {
	s := &RouterState{covered: r.covered, dropped: r.bad}
	s.vcs = append(s.vcs, saveVC(r.covered))
	return s
}

func saveVC(g int) vcState {
	return vcState{g: g, lost: true}
}

func (r *Router) RestoreState(s *RouterState) {
	r.covered = s.covered
	r.bad = 0
	for i := range s.vcs {
		restoreVC(&s.vcs[i])
	}
}

func restoreVC(s *vcState) {
	_ = s.g
}

func (r *Router) AppendCanonical(b []byte) []byte {
	b = append(b, byte(r.covered), byte(r.bad))
	return b
}

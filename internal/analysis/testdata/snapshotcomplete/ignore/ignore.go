// Fixture: a snapshotcomplete finding waived in place. The directive
// names the analyzer and gives a reason, so the coverage gap on ghost is
// suppressed.
package core

type Router struct {
	covered int
	//nocvet:ignore snapshotcomplete legacy field, coverage tracked in a follow-up
	ghost int
}

type RouterState struct {
	covered int
}

func (r *Router) SaveStateInto() *RouterState {
	return &RouterState{covered: r.covered}
}

func saveVC(g int) int { return g }

func (r *Router) RestoreState(s *RouterState) {
	r.covered = s.covered
}

func restoreVC(g int) int { return g }

func (r *Router) AppendCanonical(b []byte) []byte {
	return append(b, byte(r.covered))
}

// Fixture: a fully covered snapshot contract — every mutable field is
// referenced by each role of the triple, and the one exception carries a
// reasoned //noc:derived marker.
package core

type Router struct {
	covered int
	flags   []bool
	//noc:derived per-cycle scratch, rebuilt every tick
	scratch []int
}

type RouterState struct {
	covered int
	flags   []bool
}

func (r *Router) SaveStateInto() *RouterState {
	return &RouterState{
		covered: saveVC(r.covered),
		flags:   append([]bool(nil), r.flags...),
	}
}

func saveVC(g int) int { return g }

func (r *Router) RestoreState(s *RouterState) {
	r.covered = restoreVC(s.covered)
	copy(r.flags, s.flags)
}

func restoreVC(g int) int { return g }

func (r *Router) AppendCanonical(b []byte) []byte {
	b = append(b, byte(r.covered))
	for _, f := range r.flags {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

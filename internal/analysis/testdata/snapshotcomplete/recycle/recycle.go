// Fixture: a save function that fills recycled storage. RouterState.kept
// is assigned on the path fresh and recycled storage share; stale is set
// only in the composite literal of the branch that allocates when no
// storage was offered, so a recycled state would keep whatever it held —
// a reference there must not count as coverage. lost is the same gap
// behind a value-typed variable. The condition of the allocating if
// still counts (shape), and so does its else branch (reused).
package core

type Router struct {
	kept  int
	stale int
}

type RouterState struct {
	kept   int
	stale  int  // want `field stale of RouterState is set by its save functions \(SaveStateInto/saveVC\) only in the branch that allocates a fresh RouterState`
	lost   bool // want `field lost of RouterState is set by its save functions \(SaveStateInto/saveVC\) only in the branch that allocates a fresh RouterState`
	shape  int
	reused bool
}

func (r *Router) SaveStateInto(old *RouterState) *RouterState {
	s := old
	if s == nil || s.shape != 1 {
		s = &RouterState{stale: r.stale}
	} else {
		s.reused = true
	}
	saveVC(s, r.kept)
	return s
}

func saveVC(s *RouterState, kept int) {
	if s.kept < 0 {
		var fresh RouterState
		fresh = RouterState{lost: true}
		*s = fresh
	}
	s.kept = kept
}

func (r *Router) RestoreState(s *RouterState) {
	r.kept, r.stale = s.kept, s.stale
	_, _ = s.shape, s.reused
	restoreVC(s)
}

func restoreVC(s *RouterState) {
	_ = s.lost
}

func (r *Router) AppendCanonical(b []byte) []byte {
	return append(b, byte(r.kept), byte(r.stale))
}

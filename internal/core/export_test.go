package core

import (
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// setVCState hand-places input VC (p, v) in pipeline state g with routing
// result out, keeping the router's derived occupancy state in step — the
// only way a white-box test may write G (see InputVC). g is a state a
// packet holds before it is dropped or released: tests reach vc.Dropping
// through routing and vc.Idle through the tail flit.
func (r *Router) setVCState(p topology.Port, v int, g vc.GState, out topology.Port) {
	q := r.inVC(int(p), v)
	if q.G == vc.Idle {
		r.vcOccupy(p, v)
	}
	q.G, q.R = g, out
}

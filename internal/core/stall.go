package core

import (
	"math/bits"

	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/vc"
)

// Stall attribution: at the end of every Tick the router classifies
// each input VC that held work it could not advance this cycle —
// answering why latency rose, not just that it did. The taxonomy
// (obs.StallKind) splits waits into downstream backpressure
// (credit-starved), contention inside this router (arbitration-lost),
// fault detours (route-blocked) and the drain of fault-dropped packets
// (fault-drain).
//
// The scan is a pure observer: it reads pipeline state through the
// same predicates the stages use but mutates nothing (in particular it
// avoids effectiveRequestPort, which refreshes SP/FSP), so enabling
// observability cannot perturb the simulation it measures. When obs is
// nil the scan is a single branch, preserving the zero-alloc disabled
// hot path.

// noteAdvance marks input VC (p, v) as having advanced this cycle so
// the stall scan skips it. Callers sit inside the pipeline's existing
// obs nil-guarded blocks: the words exist only when the scan runs.
func (r *Router) noteAdvance(p, v int) { r.advanced[p] |= 1 << uint(v) }

// stallScan runs after the pipeline stages and classifies every
// non-advancing input VC. Within a Tick the stages run in reverse
// pipeline order and the scan runs last, so a VC that was serviced
// this cycle has either been marked by noteAdvance or moved to a state
// whose stage already ran (and is marked there too); everything else
// genuinely waited. An Idle VC has nothing to classify, so the scan
// visits occ[p] less the advanced VCs — at low load about one VC in
// twenty — and clears a port's advance marks with one store.
func (r *Router) stallScan(cy sim.Cycle) {
	o := r.obs
	if o == nil {
		return
	}
	V := r.cfg.VCs
	for p, occ := range r.occ {
		m := occ &^ r.advanced[p]
		r.advanced[p] = 0
		vcs := r.portVCs(p)
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			q := &vcs[v]
			switch q.G {
			case vc.Dropping:
				// Draining a packet discarded by network faults; every
				// cycle it still holds flits is fault cost.
				if !q.Empty() {
					o.Stall(obs.StallFaultDrain, p, v)
				}
			case vc.Routing:
				if !headReady(q) {
					continue // head still on the wire — not this router's wait
				}
				if !r.rc[p].Usable() {
					// No fault-free RC copy: routing itself is blocked.
					o.Stall(obs.StallRouteBlocked, p, v)
				} else {
					// Lost the port's one-RC-per-cycle round-robin.
					o.Stall(obs.StallArbLost, p, v)
				}
			case vc.VCAlloc:
				out := int(q.R)
				lo, hi := r.cfg.ClassRange(r.cfg.ClassOf(v))
				if q.DvcLo < q.DvcHi {
					lo, hi = q.DvcLo, q.DvcHi
				}
				free := false
				for dvc := lo; dvc < hi; dvc++ {
					if !r.outVCBusy[out*V+dvc] {
						free = true
						break
					}
				}
				switch {
				case q.Detour || q.FSP:
					o.Stall(obs.StallRouteBlocked, p, v)
				case !free:
					// Every eligible downstream VC is allocated: the wait
					// is downstream occupancy, not this router's arbiters.
					o.Stall(obs.StallCreditStarved, p, v)
				default:
					o.Stall(obs.StallArbLost, p, v)
				}
			case vc.Active:
				if q.Empty() {
					continue // body flits still on the wire
				}
				switch {
				case !r.primaryPathUsable(q.R) && !r.secondaryPathUsable(q.R):
					o.Stall(obs.StallRouteBlocked, p, v)
				case q.Detour || q.FSP:
					o.Stall(obs.StallRouteBlocked, p, v)
				case r.credits[int(q.R)*V+q.OutVC] == 0:
					o.Stall(obs.StallCreditStarved, p, v)
				default:
					o.Stall(obs.StallArbLost, p, v)
				}
			}
		}
	}
}

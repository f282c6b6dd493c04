package core

import (
	"fmt"

	"gonoc/internal/topology"
)

// StageID identifies a router pipeline stage, used by the fault model and
// the reliability analysis.
type StageID int

// The four pipeline stages of Figure 2.
const (
	StageRC StageID = iota
	StageVA
	StageSA
	StageXB
)

// String implements fmt.Stringer.
func (s StageID) String() string {
	switch s {
	case StageRC:
		return "RC"
	case StageVA:
		return "VA"
	case StageSA:
		return "SA"
	case StageXB:
		return "XB"
	default:
		return fmt.Sprintf("StageID(%d)", int(s))
	}
}

// setBit returns w with bit k set to f.
func setBit(w uint64, k int, f bool) uint64 {
	if f {
		return w | 1<<uint(k)
	}
	return w &^ (1 << uint(k))
}

// SetRCFault marks RC copy copyIdx (0 = primary, 1 = duplicate) of input
// port p faulty. Marking the duplicate of the baseline router, which has
// none, panics.
func (r *Router) SetRCFault(p topology.Port, copyIdx int, f bool) {
	if copyIdx == 1 && !r.cfg.FaultTolerant {
		panic("core: baseline RC unit has no duplicate copy")
	}
	r.rcFaulty[copyIdx] = setBit(r.rcFaulty[copyIdx], int(p), f)
}

// SetVA1Fault marks the stage-1 VA arbiter set of input VC (p, v) faulty.
func (r *Router) SetVA1Fault(p topology.Port, v int, f bool) {
	r.va1Faulty()[p] = setBit(r.va1Faulty()[p], v, f)
}

// SetVA2Fault marks the stage-2 VA arbiter of downstream VC (out, dvc)
// faulty.
func (r *Router) SetVA2Fault(out topology.Port, dvc int, f bool) {
	r.va2()[int(out)*r.cfg.VCs+dvc].SetFaulty(f)
}

// SetSA1Fault marks input port p's stage-1 SA arbiter faulty.
func (r *Router) SetSA1Fault(p topology.Port, f bool) {
	arb := &r.sa1[p].Arb
	if arb.Faulty() != f {
		if f {
			r.sa1Faults++
		} else {
			r.sa1Faults--
		}
	}
	arb.SetFaulty(f)
}

// SetSA1BypassFault marks input port p's SA bypass path faulty.
func (r *Router) SetSA1BypassFault(p topology.Port, f bool) { r.sa1[p].SetBypassFaulty(f) }

// SetSA2Fault marks output port out's stage-2 SA arbiter faulty.
func (r *Router) SetSA2Fault(out topology.Port, f bool) {
	r.sa2()[out].SetFaulty(f)
	r.pathOK = r.pathWord()
}

// SetXBFault marks output port out's primary crossbar multiplexer faulty.
func (r *Router) SetXBFault(out topology.Port, f bool) {
	r.xb.SetMuxFaulty(int(out), f)
	r.pathOK = r.pathWord()
}

// SetXBSecondaryFault marks output port out's secondary crossbar path
// faulty. It panics on the baseline router, which has no secondary paths.
func (r *Router) SetXBSecondaryFault(out topology.Port, f bool) {
	if !r.cfg.FaultTolerant {
		panic("core: baseline crossbar has no secondary path")
	}
	r.xb.SetSecondaryFaulty(int(out), f)
}

// Functional reports whether the router can still perform every routing
// function — the failure predicate of the paper's SPF analysis (Section
// VIII). The protected router fails when, for some port:
//
//   - both RC copies are faulty (routing impossible at that port), or
//   - every VC's stage-1 VA arbiter set is faulty (no allocation), or
//   - every stage-2 VA arbiter of some message class is faulty, or
//   - the SA stage-1 arbiter and its bypass path are both faulty, or
//   - neither the primary nor the secondary path reaches the output
//     (crossbar mux / SA stage-2 arbiter combinations).
//
// The baseline router fails on its first fault anywhere.
func (r *Router) Functional() bool {
	V := r.cfg.VCs
	for p := 0; p < r.cfg.Ports; p++ {
		if !r.rcUsable(p) {
			return false
		}
		if !r.cfg.FaultTolerant {
			if r.va1Faulty()[p] != 0 || r.sa1[p].Arb.Faulty() || r.sa2()[p].Faulty() || r.xb.MuxFaulty(p) {
				return false
			}
			for _, a := range r.va2()[p*V : (p+1)*V] {
				if a.Faulty() {
					return false
				}
			}
			continue
		}
		if r.va1Faulty()[p] == spanWord(0, V) || !r.sa1[p].Usable() {
			return false
		}
		for cls := 0; cls < r.cfg.Classes; cls++ {
			if r.classStage2Dead(p, cls) {
				return false
			}
		}
		if !r.primaryPathUsable(topology.Port(p)) && !r.secondaryPathUsable(topology.Port(p)) {
			return false
		}
	}
	return true
}

// rcUsable reports whether input port p can still perform routing
// computation: its RC unit, or the protected router's duplicate, works.
func (r *Router) rcUsable(p int) bool {
	dead := r.rcFaulty[0]
	if r.cfg.FaultTolerant {
		dead &= r.rcFaulty[1]
	}
	return dead>>uint(p)&1 == 0
}

// classStage2Dead reports whether every stage-2 VA arbiter of class cls at
// output port p is faulty.
func (r *Router) classStage2Dead(p, cls int) bool {
	lo, hi := r.cfg.ClassRange(cls)
	for _, a := range r.va2()[p*r.cfg.VCs+lo : p*r.cfg.VCs+hi] {
		if !a.Faulty() {
			return false
		}
	}
	return true
}

// RCFault reports whether RC copy copyIdx of input port p is faulty.
func (r *Router) RCFault(p topology.Port, copyIdx int) bool {
	return r.rcFaulty[copyIdx]>>uint(p)&1 != 0
}

// VA1Fault reports whether input VC (p, v)'s stage-1 arbiter set is
// faulty.
func (r *Router) VA1Fault(p topology.Port, v int) bool {
	return r.va1Faulty()[p]>>uint(v)&1 != 0
}

// VA2Fault reports whether the stage-2 VA arbiter of (out, dvc) is
// faulty.
func (r *Router) VA2Fault(out topology.Port, dvc int) bool {
	return r.va2()[int(out)*r.cfg.VCs+dvc].Faulty()
}

// SA1Fault reports whether input port p's stage-1 SA arbiter is faulty.
func (r *Router) SA1Fault(p topology.Port) bool { return r.sa1[p].Arb.Faulty() }

// SA1BypassFault reports whether input port p's bypass path is faulty.
func (r *Router) SA1BypassFault(p topology.Port) bool { return r.sa1[p].BypassFaulty() }

// SA2Fault reports whether output port out's stage-2 SA arbiter is
// faulty.
func (r *Router) SA2Fault(out topology.Port) bool { return r.sa2()[out].Faulty() }

// XBFault reports whether output port out's primary crossbar mux is
// faulty.
func (r *Router) XBFault(out topology.Port) bool { return r.xb.MuxFaulty(int(out)) }

// XBSecondaryFault reports whether output out's secondary crossbar path
// is faulty. It panics on the baseline router.
func (r *Router) XBSecondaryFault(out topology.Port) bool {
	if !r.cfg.FaultTolerant {
		panic("core: baseline crossbar has no secondary path")
	}
	return r.xb.SecondaryFaulty(int(out))
}

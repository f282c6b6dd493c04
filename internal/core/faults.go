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

// SetRCFault marks RC copy copyIdx (0 = primary, 1 = duplicate) of input
// port p faulty.
func (r *Router) SetRCFault(p topology.Port, copyIdx int, f bool) {
	r.rc[p].SetFaulty(copyIdx, f)
}

// SetVA1Fault marks the stage-1 VA arbiter set of input VC (p, v) faulty.
func (r *Router) SetVA1Fault(p topology.Port, v int, f bool) {
	r.va.SetStage1Faulty(int(p), v, f)
}

// SetVA2Fault marks the stage-2 VA arbiter of downstream VC (out, dvc)
// faulty.
func (r *Router) SetVA2Fault(out topology.Port, dvc int, f bool) {
	r.va.Stage2(int(out), dvc).SetFaulty(f)
}

// SetSA1Fault marks input port p's stage-1 SA arbiter faulty.
func (r *Router) SetSA1Fault(p topology.Port, f bool) {
	arb := &r.sa.Stage1(int(p)).Arb
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
func (r *Router) SetSA1BypassFault(p topology.Port, f bool) {
	r.sa.Stage1(int(p)).SetBypassFaulty(f)
}

// SetSA2Fault marks output port out's stage-2 SA arbiter faulty.
func (r *Router) SetSA2Fault(out topology.Port, f bool) {
	r.sa.Stage2(int(out)).SetFaulty(f)
	r.pathOK = r.pathWord()
}

// SetXBFault marks output port out's primary crossbar multiplexer faulty.
func (r *Router) SetXBFault(out topology.Port, f bool) {
	if r.cfg.FaultTolerant {
		r.xbProt.SetMuxFaulty(int(out), f)
	} else {
		r.xbBase.SetMuxFaulty(int(out), f)
	}
	r.pathOK = r.pathWord()
}

// SetXBSecondaryFault marks output port out's secondary crossbar path
// faulty. It panics on the baseline router, which has no secondary paths.
func (r *Router) SetXBSecondaryFault(out topology.Port, f bool) {
	if !r.cfg.FaultTolerant {
		panic("core: baseline crossbar has no secondary path")
	}
	r.xbProt.SetSecondaryFaulty(int(out), f)
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
	for p := 0; p < r.cfg.Ports; p++ {
		if !r.rc[p].Usable() {
			return false
		}
		if r.cfg.FaultTolerant {
			if r.va.PortStage1Dead(p) {
				return false
			}
			if !r.sa.Stage1(p).Usable() {
				return false
			}
		} else {
			for v := 0; v < r.cfg.VCs; v++ {
				if r.va.Stage1Faulty(p, v) || r.va.Stage2(p, v).Faulty() {
					return false
				}
			}
			if r.sa.Stage1(p).Arb.Faulty() || r.sa.Stage2(p).Faulty() {
				return false
			}
			if r.xbBase.MuxFaulty(p) {
				return false
			}
			continue
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

// classStage2Dead reports whether every stage-2 VA arbiter of class cls at
// output port p is faulty.
func (r *Router) classStage2Dead(p, cls int) bool {
	lo, hi := r.cfg.ClassRange(cls)
	for dvc := lo; dvc < hi; dvc++ {
		if !r.va.Stage2(p, dvc).Faulty() {
			return false
		}
	}
	return true
}

// RCFault reports whether RC copy copyIdx of input port p is faulty.
func (r *Router) RCFault(p topology.Port, copyIdx int) bool {
	return r.rc[p].Faulty(copyIdx)
}

// VA1Fault reports whether input VC (p, v)'s stage-1 arbiter set is
// faulty.
func (r *Router) VA1Fault(p topology.Port, v int) bool {
	return r.va.Stage1Faulty(int(p), v)
}

// VA2Fault reports whether the stage-2 VA arbiter of (out, dvc) is
// faulty.
func (r *Router) VA2Fault(out topology.Port, dvc int) bool {
	return r.va.Stage2(int(out), dvc).Faulty()
}

// SA1Fault reports whether input port p's stage-1 SA arbiter is faulty.
func (r *Router) SA1Fault(p topology.Port) bool {
	return r.sa.Stage1(int(p)).Arb.Faulty()
}

// SA1BypassFault reports whether input port p's bypass path is faulty.
func (r *Router) SA1BypassFault(p topology.Port) bool {
	return r.sa.Stage1(int(p)).BypassFaulty()
}

// SA2Fault reports whether output port out's stage-2 SA arbiter is
// faulty.
func (r *Router) SA2Fault(out topology.Port) bool {
	return r.sa.Stage2(int(out)).Faulty()
}

// XBFault reports whether output port out's primary crossbar mux is
// faulty.
func (r *Router) XBFault(out topology.Port) bool {
	if r.cfg.FaultTolerant {
		return r.xbProt.MuxFaulty(int(out))
	}
	return r.xbBase.MuxFaulty(int(out))
}

// XBSecondaryFault reports whether output out's secondary crossbar path
// is faulty. It panics on the baseline router.
func (r *Router) XBSecondaryFault(out topology.Port) bool {
	if !r.cfg.FaultTolerant {
		panic("core: baseline crossbar has no secondary path")
	}
	return r.xbProt.SecondaryFaulty(int(out))
}

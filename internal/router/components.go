package router

import (
	"fmt"

	"gonoc/internal/arbiter"
	"gonoc/internal/topology"
)

// RCUnit is the routing-computation logic of one input port. In the
// baseline router it is a single pair of coordinate comparators; the
// protected router adds a spatially redundant duplicate that is switched
// in when the primary is detected faulty (Section V-A).
type RCUnit struct {
	topo      topology.Topology
	redundant bool // protected router: duplicate unit present
	faulty    [2]bool
}

// NewRCUnit returns an RC unit for a router at a node of topo. redundant
// selects the protected router's duplicate copy.
func NewRCUnit(topo topology.Topology, redundant bool) *RCUnit {
	return &RCUnit{topo: topo, redundant: redundant}
}

// SetFaulty marks one copy faulty: copy 0 is the primary, copy 1 the
// duplicate. Marking the duplicate of a non-redundant unit panics.
func (u *RCUnit) SetFaulty(copyIdx int, f bool) {
	if copyIdx == 1 && !u.redundant {
		panic("router: baseline RC unit has no duplicate copy")
	}
	u.faulty[copyIdx] = f
}

// Faulty reports whether copy copyIdx is faulty.
func (u *RCUnit) Faulty(copyIdx int) bool { return u.faulty[copyIdx] }

// Usable reports whether the port can still perform routing computation.
func (u *RCUnit) Usable() bool {
	if !u.faulty[0] {
		return true
	}
	return u.redundant && !u.faulty[1]
}

// Compute runs the topology's deterministic minimal routing for a packet
// at node cur headed to dst. ok is false when no fault-free copy remains.
func (u *RCUnit) Compute(cur, dst int) (topology.Port, bool) {
	if !u.Usable() {
		return topology.Local, false
	}
	//nocvet:ignore hotpathalloc topology Route implementations are pure coordinate arithmetic
	return u.topo.Route(cur, dst), true
}

// VAlloc holds the two-stage separable virtual-channel allocator's
// arbiters (Figure 3a) and their fault state.
//
// Stage 1: every input VC owns a set of po v:1 arbiters (one per output
// port). Behaviourally only the arbiter for the VC's routed output port is
// exercised in a given allocation, and the paper treats a fault in any
// arbiter of a VC's set as making the whole set unusable, so we model one
// v:1 arbiter plus one fault flag per input VC.
//
// Stage 2: one (pi·v):1 arbiter per downstream VC of each output port.
type VAlloc struct {
	cfg Config
	// arbs holds every arbiter by value, flat index port*VCs+vc: the
	// stage-1 arbiter of input VC (p, v) — over the v downstream VCs of
	// the routed output port — at p*VCs+v, and the stage-2 arbiter of
	// downstream VC (out, dvc) — over the pi·v input VCs — Ports*VCs
	// further on.
	arbs []arbiter.RoundRobin
	// stage1Faulty marks an input VC's whole arbiter set faulty, same
	// flat index.
	stage1Faulty []bool
}

// NewVAlloc builds the allocator arbiters for cfg.
func NewVAlloc(cfg Config) *VAlloc {
	n := cfg.Ports * cfg.VCs
	va := &VAlloc{cfg: cfg, arbs: make([]arbiter.RoundRobin, 2*n), stage1Faulty: make([]bool, n)}
	for i := 0; i < n; i++ {
		va.arbs[i] = *arbiter.NewRoundRobin(cfg.VCs)
		va.arbs[n+i] = *arbiter.NewRoundRobin(n)
	}
	return va
}

// Stage1 returns input VC (p, v)'s first-stage arbiter.
func (va *VAlloc) Stage1(p, v int) *arbiter.RoundRobin { return &va.arbs[p*va.cfg.VCs+v] }

// SetStage1Faulty marks input VC (p, v)'s arbiter set faulty.
func (va *VAlloc) SetStage1Faulty(p, v int, f bool) { va.stage1Faulty[p*va.cfg.VCs+v] = f }

// Stage1Faulty reports whether input VC (p, v)'s arbiter set is faulty.
func (va *VAlloc) Stage1Faulty(p, v int) bool { return va.stage1Faulty[p*va.cfg.VCs+v] }

// Stage2 returns the second-stage arbiter of downstream VC (outPort, dvc).
func (va *VAlloc) Stage2(outPort, dvc int) *arbiter.RoundRobin {
	return &va.arbs[(va.cfg.Ports+outPort)*va.cfg.VCs+dvc]
}

// PortStage1Dead reports whether every VC arbiter set of input port p is
// faulty — the VA-stage failure condition of Section VIII-B.
func (va *VAlloc) PortStage1Dead(p int) bool {
	for v := 0; v < va.cfg.VCs; v++ {
		if !va.Stage1Faulty(p, v) {
			return false
		}
	}
	return true
}

// ClassStage2Dead reports whether, for output port p and message class
// cls, every downstream VC's stage-2 arbiter is faulty, making allocation
// for that class impossible.
func (va *VAlloc) ClassStage2Dead(p, cls int) bool {
	lo, hi := va.cfg.ClassRange(cls)
	for dvc := lo; dvc < hi; dvc++ {
		if !va.Stage2(p, dvc).Faulty() {
			return false
		}
	}
	return true
}

// SAlloc holds the two-stage separable switch allocator (Figure 3b):
// stage 1 is one v:1 arbiter per input port (wrapped with the protected
// router's bypass path), stage 2 one pi:1 arbiter per output port. Both
// are held by value, indexed by port.
type SAlloc struct {
	cfg    Config
	stage1 []arbiter.Bypassed
	stage2 []arbiter.RoundRobin
}

// NewSAlloc builds the switch allocator arbiters for cfg.
func NewSAlloc(cfg Config) *SAlloc {
	sa := &SAlloc{cfg: cfg}
	sa.stage1 = make([]arbiter.Bypassed, cfg.Ports)
	sa.stage2 = make([]arbiter.RoundRobin, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		sa.stage1[p] = *arbiter.NewBypassed(cfg.VCs, cfg.BypassRotatePeriod)
		sa.stage2[p] = *arbiter.NewRoundRobin(cfg.Ports)
	}
	return sa
}

// Stage1 returns input port p's first-stage arbiter (with bypass).
func (sa *SAlloc) Stage1(p int) *arbiter.Bypassed { return &sa.stage1[p] }

// Stage2 returns output port p's second-stage arbiter.
func (sa *SAlloc) Stage2(p int) *arbiter.RoundRobin { return &sa.stage2[p] }

// String implements fmt.Stringer.
func (va *VAlloc) String() string {
	return fmt.Sprintf("VAlloc{p=%d v=%d}", va.cfg.Ports, va.cfg.VCs)
}

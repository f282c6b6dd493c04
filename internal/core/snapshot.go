package core

import (
	"encoding/binary"

	"gonoc/internal/flit"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// This file implements deep save/restore of a router's architectural
// state and a canonical byte encoding of it. Both exist for the
// model-checking tier (internal/modelcheck), which snapshots a
// mid-execution network, explores one branch, and rolls back — and they
// are the per-router half of the checkpoint/restore groundwork the
// ROADMAP's campaign-server item needs.
//
// Save/Restore operate at the network step boundary, where the router's
// four I/O latches (inFlits, inCredits, outFlits, outCredits) and the
// droppedPkts drain are empty by construction: inputs were accepted at
// the top of Tick and outputs were taken by the network's commit phase.
// The only cross-cycle state is what SaveState captures: VC buffers and
// state fields, output-side credit/busy bookkeeping, pending SA grants
// (executed by next cycle's crossbar stage), arbiter priority and
// bypass registers, the RC scan and bypass-adoption pointers, fault
// flags, and the counters.

// vcState is the saved form of one input VC.
type vcState struct {
	flits  []*flit.Flit
	g      vc.GState
	r      topology.Port
	outVC  int
	r2     topology.Port
	vf     bool
	id     int
	sp     topology.Port
	fsp    bool
	detour bool
	dvcLo  int
	dvcHi  int
}

// RouterState is a deep copy of a Router's mutable architectural state
// at a network step boundary. It is produced by SaveState and consumed
// by RestoreState; the flit pointers it holds are clones produced by
// the caller's cloneFlit function, never aliases of live router state.
type RouterState struct {
	vcs       [][]vcState
	outVCBusy [][]bool
	credits   [][]int
	grants    []grant
	rcScan    []int
	saAdopted []int
	saAdopt   []int

	va1Prio []int // per (port, VC), indexed p*VCs+v, as va2Prio and the two va*Faulty
	va2Prio []int
	sa1Prio []int
	sa1DW   []int // bypass default-winner register, per port
	sa1Rot  []int // bypass grants-since-rotation counter, per port
	sa2Prio []int

	rcFaulty     [][2]bool
	va1Faulty    []bool
	va2Faulty    []bool
	sa1ArbFault  []bool
	sa1BypFault  []bool
	sa2Faulty    []bool
	xbMuxFaulty  []bool
	xbSecFaulty  []bool
	xbSecPresent bool

	counters Counters
}

// SaveState deep-copies the router's mutable state. cloneFlit maps each
// buffered flit to the copy stored in the snapshot; the caller supplies
// it so packet identity can be preserved across routers (the network
// snapshot passes a memoizing cloner that maps every *flit.Packet to a
// single clone). cloneFlit must not return its argument: flits are
// mutated in place by the pipeline (Hops), so aliasing would let
// post-snapshot execution corrupt the snapshot.
func (r *Router) SaveState(cloneFlit func(*flit.Flit) *flit.Flit) *RouterState {
	return r.SaveStateInto(nil, cloneFlit)
}

// SaveStateInto is SaveState writing into old's storage: every field of
// old is overwritten and old is returned, so saving into a state the
// caller no longer needs allocates nothing beyond cloneFlit's copies.
// The caller must own old outright — nothing may still expect to
// restore from it. A nil old, or one saved from a router with a
// different port or VC count, is left untouched and a fresh state is
// returned instead.
func (r *Router) SaveStateInto(old *RouterState, cloneFlit func(*flit.Flit) *flit.Flit) *RouterState {
	P, V := r.cfg.Ports, r.cfg.VCs
	s := old
	if s == nil || len(s.vcs) != P || len(s.va1Prio) != P*V {
		s = newRouterState(P, V)
	}
	s.grants = append(s.grants[:0], r.grants...)
	copy(s.rcScan, r.rcScan)
	copy(s.saAdopted, r.saAdopted)
	copy(s.saAdopt, r.saAdoptAge)
	s.xbSecPresent = r.xbProt != nil
	s.counters = r.Counters
	for p := 0; p < P; p++ {
		copy(s.outVCBusy[p], r.outVCBusy[p])
		copy(s.credits[p], r.credits[p])
		for v := 0; v < V; v++ {
			saveVC(&s.vcs[p][v], r.in[p].VCs[v], cloneFlit)
			s.va1Prio[p*V+v] = r.va.Stage1(p, v).Prio()
			s.va2Prio[p*V+v] = r.va.Stage2(p, v).Prio()
			s.va1Faulty[p*V+v] = r.va.Stage1Faulty(p, v)
			s.va2Faulty[p*V+v] = r.va.Stage2(p, v).Faulty()
		}
		b := r.sa.Stage1(p)
		s.sa1Prio[p] = b.Arb.Prio()
		s.sa1DW[p], s.sa1Rot[p] = b.BypassState()
		s.sa1ArbFault[p] = b.Arb.Faulty()
		s.sa1BypFault[p] = b.BypassFaulty()
		s.sa2Prio[p] = r.sa.Stage2(p).Prio()
		s.sa2Faulty[p] = r.sa.Stage2(p).Faulty()
		s.rcFaulty[p][0] = r.rc[p].Faulty(0)
		s.rcFaulty[p][1] = r.cfg.FaultTolerant && r.rc[p].Faulty(1)
		if r.xbProt != nil {
			s.xbMuxFaulty[p] = r.xbProt.MuxFaulty(p)
			s.xbSecFaulty[p] = r.xbProt.SecondaryFaulty(p)
		} else {
			s.xbMuxFaulty[p] = r.xbBase.MuxFaulty(p)
			s.xbSecFaulty[p] = false
		}
	}
	return s
}

// newRouterState allocates the storage of a P-port, V-VC router state,
// carving the fixed-length slices out of one backing array per element
// type. It sets no values: SaveStateInto writes every field of a fresh
// state and of a recycled one through the same assignments.
func newRouterState(P, V int) *RouterState {
	ints := make([]int, 7*P+3*P*V)
	bools := make([]bool, 5*P+3*P*V)
	takeInts := func(n int) []int {
		out := ints[:n:n]
		ints = ints[n:]
		return out
	}
	takeBools := func(n int) []bool {
		out := bools[:n:n]
		bools = bools[n:]
		return out
	}
	s := &RouterState{
		vcs:       make([][]vcState, P),
		outVCBusy: make([][]bool, P),
		credits:   make([][]int, P),
		rcScan:    takeInts(P),
		saAdopted: takeInts(P),
		saAdopt:   takeInts(P),

		va1Prio: takeInts(P * V),
		va2Prio: takeInts(P * V),
		sa1Prio: takeInts(P),
		sa1DW:   takeInts(P),
		sa1Rot:  takeInts(P),
		sa2Prio: takeInts(P),

		rcFaulty:    make([][2]bool, P),
		va1Faulty:   takeBools(P * V),
		va2Faulty:   takeBools(P * V),
		sa1ArbFault: takeBools(P),
		sa1BypFault: takeBools(P),
		sa2Faulty:   takeBools(P),
		xbMuxFaulty: takeBools(P),
		xbSecFaulty: takeBools(P),
	}
	vcs := make([]vcState, P*V)
	for p := 0; p < P; p++ {
		s.vcs[p] = vcs[p*V : (p+1)*V : (p+1)*V]
		s.outVCBusy[p] = takeBools(V)
		s.credits[p] = takeInts(V)
	}
	return s
}

func saveVC(s *vcState, v *vc.VC, cloneFlit func(*flit.Flit) *flit.Flit) {
	s.flits = s.flits[:0]
	for _, f := range v.Flits() {
		s.flits = append(s.flits, cloneFlit(f))
	}
	s.g, s.r, s.outVC = v.G, v.R, v.OutVC
	s.r2, s.vf, s.id, s.sp, s.fsp = v.R2, v.VF, v.ID, v.SP, v.FSP
	s.detour = v.Detour
	s.dvcLo, s.dvcHi = v.DvcLo, v.DvcHi
}

// RestoreState rewinds the router to a state saved by SaveState.
// cloneFlit maps each snapshot flit to a fresh copy installed in the
// router, so the snapshot itself stays pristine and can be restored
// from again. The router's I/O latches are cleared — the caller must
// restore at a network step boundary, where they are empty anyway.
func (r *Router) RestoreState(s *RouterState, cloneFlit func(*flit.Flit) *flit.Flit) {
	if s.xbSecPresent != (r.xbProt != nil) {
		panic("core: RestoreState: snapshot crossbar protection does not match the router's configuration")
	}
	P, V := r.cfg.Ports, r.cfg.VCs
	for p := 0; p < P; p++ {
		copy(r.outVCBusy[p], s.outVCBusy[p])
		copy(r.credits[p], s.credits[p])
		for v := 0; v < V; v++ {
			restoreVC(r.in[p].VCs[v], &s.vcs[p][v], cloneFlit)
			r.va.Stage1(p, v).SetPrio(s.va1Prio[p*V+v])
			r.va.Stage2(p, v).SetPrio(s.va2Prio[p*V+v])
			r.va.SetStage1Faulty(p, v, s.va1Faulty[p*V+v])
			r.va.Stage2(p, v).SetFaulty(s.va2Faulty[p*V+v])
		}
		b := r.sa.Stage1(p)
		b.Arb.SetPrio(s.sa1Prio[p])
		b.SetBypassState(s.sa1DW[p], s.sa1Rot[p])
		b.Arb.SetFaulty(s.sa1ArbFault[p])
		b.SetBypassFaulty(s.sa1BypFault[p])
		r.sa.Stage2(p).SetPrio(s.sa2Prio[p])
		r.sa.Stage2(p).SetFaulty(s.sa2Faulty[p])
		r.rc[p].SetFaulty(0, s.rcFaulty[p][0])
		if r.cfg.FaultTolerant {
			r.rc[p].SetFaulty(1, s.rcFaulty[p][1])
		}
		if r.xbProt != nil {
			r.xbProt.SetMuxFaulty(p, s.xbMuxFaulty[p])
			r.xbProt.SetSecondaryFaulty(p, s.xbSecFaulty[p])
		} else {
			r.xbBase.SetMuxFaulty(p, s.xbMuxFaulty[p])
		}
	}
	r.grants = append(r.grants[:0], s.grants...)
	copy(r.rcScan, s.rcScan)
	copy(r.saAdopted, s.saAdopted)
	copy(r.saAdoptAge, s.saAdopt)
	r.Counters = s.counters
	r.rebuildOccupancy()
	r.inFlits = r.inFlits[:0]
	r.inCredits = r.inCredits[:0]
	r.outFlits = r.outFlits[:0]
	r.outCredits = r.outCredits[:0]
	r.droppedPkts = r.droppedPkts[:0]
}

func restoreVC(v *vc.VC, s *vcState, cloneFlit func(*flit.Flit) *flit.Flit) {
	v.SetFlits(s.flits, cloneFlit)
	v.G, v.R, v.OutVC = s.g, s.r, s.outVC
	v.R2, v.VF, v.ID, v.SP, v.FSP = s.r2, s.vf, s.id, s.sp, s.fsp
	v.Detour = s.detour
	v.DvcLo, v.DvcHi = s.dvcLo, s.dvcHi
}

// Canonical-encoding helpers. Signed varints keep the encoding compact
// and unambiguous (every field is length- or count-prefixed where
// variable).
func appI(b []byte, v int) []byte    { return binary.AppendVarint(b, int64(v)) }
func appU(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appB(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendCanonicalFlit appends a behaviour-relevant encoding of one flit:
// kind, flit sequence number, and the packet's logical identity
// (source, destination, class, size, end-to-end sequence number).
// Simulation-bookkeeping fields — packet ID, timestamps, hop count — are
// deliberately excluded: two states that differ only in those fields
// behave identically forever, and folding them together is what makes
// exhaustive exploration terminate.
func AppendCanonicalFlit(b []byte, f *flit.Flit) []byte {
	b = append(b, byte(f.Kind))
	b = appI(b, f.Seq)
	b = appI(b, f.Pkt.Src)
	b = appI(b, f.Pkt.Dst)
	b = append(b, byte(f.Pkt.Class))
	b = appI(b, f.Pkt.Size)
	b = appU(b, f.Pkt.Seq)
	return b
}

// AppendCanonical appends the router's behaviour-relevant state to b and
// returns the extended slice. Two routers with equal canonical encodings
// (and equal configurations) are bisimilar: every future Tick sequence
// produces the same architectural behaviour. Counters are excluded (they
// never feed back into arbitration), as are the I/O latches (empty at
// the step boundary where this must be called).
func (r *Router) AppendCanonical(b []byte) []byte {
	P, V := r.cfg.Ports, r.cfg.VCs
	for p := 0; p < P; p++ {
		for v := 0; v < V; v++ {
			ivc := r.in[p].VCs[v]
			b = append(b, byte(ivc.G))
			b = appI(b, int(ivc.R))
			b = appI(b, ivc.OutVC)
			b = appI(b, int(ivc.R2))
			b = appB(b, ivc.VF)
			b = appI(b, ivc.ID)
			b = appI(b, int(ivc.SP))
			b = appB(b, ivc.FSP)
			// Detour is observational only (stall attribution) and is
			// excluded like the counters: it never feeds arbitration.
			b = appI(b, ivc.DvcLo)
			b = appI(b, ivc.DvcHi)
			fs := ivc.Flits()
			b = appI(b, len(fs))
			for _, f := range fs {
				b = AppendCanonicalFlit(b, f)
			}
			b = appB(b, r.outVCBusy[p][v])
			b = appI(b, r.credits[p][v])
			b = appI(b, r.va.Stage1(p, v).Prio())
			b = appI(b, r.va.Stage2(p, v).Prio())
			b = appB(b, r.va.Stage1Faulty(p, v))
			b = appB(b, r.va.Stage2(p, v).Faulty())
		}
		sa1 := r.sa.Stage1(p)
		b = appI(b, sa1.Arb.Prio())
		dw, rot := sa1.BypassState()
		b = appI(b, dw)
		b = appI(b, rot)
		b = appB(b, sa1.Arb.Faulty())
		b = appB(b, sa1.BypassFaulty())
		b = appI(b, r.sa.Stage2(p).Prio())
		b = appB(b, r.sa.Stage2(p).Faulty())
		b = appB(b, r.rc[p].Faulty(0))
		if r.cfg.FaultTolerant {
			b = appB(b, r.rc[p].Faulty(1))
		}
		if r.xbProt != nil {
			b = appB(b, r.xbProt.MuxFaulty(p))
			b = appB(b, r.xbProt.SecondaryFaulty(p))
		} else {
			b = appB(b, r.xbBase.MuxFaulty(p))
		}
		b = appI(b, r.rcScan[p])
		b = appI(b, r.saAdopted[p])
		b = appI(b, r.saAdoptAge[p])
	}
	b = appI(b, len(r.grants))
	for _, g := range r.grants {
		b = appI(b, int(g.inPort))
		b = appI(b, g.inVC)
		b = appI(b, int(g.outPort))
		b = appB(b, g.secondary)
	}
	return b
}

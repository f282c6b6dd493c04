package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

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

// RouterState is a deep copy of a Router's mutable architectural state
// at a network step boundary, produced by SaveState and consumed by
// RestoreState. It is one sequential record plus the buffered flits:
// three objects however many ports and VCs the router has, where the
// field-by-field layout it replaced was ten (snapshot_ref_test.go keeps
// that one as the test oracle). The zero RouterState is empty storage
// SaveStateInto fills for any router.
//
// rec is written and read front to back, in this order:
//
//	len(grants), then inPort, inVC, outPort, secondary per grant
//	per port:  rcScan, saAdopted, saAdoptAge, SA stage-1 priority,
//	           bypass default winner, bypass grants since rotation,
//	           SA stage-2 priority, port flags (the seven fault bits)
//	  per VC:  credits, VA stage-1 priority, VA stage-2 priority,
//	           VC flags (outVCBusy, the two VA fault bits, entry follows)
//	           and, only for a VC that is not in its reset state
//	           (vc.VC.IsReset), its entry: G, R, OutVC, R2, ID, SP,
//	           VF|FSP|Detour, DvcLo, DvcHi, number of buffered flits
//
// Every value is a port, a VC index, an arbiter priority (below
// Ports*VCs), a credit count (at most Depth) or a rotation counter (at
// most BypassRotatePeriod), so the record is []int16 and put panics on a
// value that does not fit instead of truncating it: router.Config caps
// ports and VCs at 64, and a buffer depth or rotate period of 32768 is a
// configuration no experiment in this repository comes within two orders
// of magnitude of. The flits of the VCs that have an entry sit in flits,
// in record order. RestoreState resets a live VC that has no entry —
// what ResetPacketState and ClearBorrow do — and checks at the end that
// it consumed the record and the flits exactly.
type RouterState struct {
	// ports, vcs, depth and protected are the configuration of the
	// router the record was saved from, the only ones it restores into.
	ports, vcs, depth int32
	protected         bool

	rec      []int16
	flits    []flit.Flit
	counters Counters
}

// fits reports whether s is empty storage or was saved from a router of
// r's configuration.
func (s *RouterState) fits(r *Router) bool {
	return s.ports == 0 || s.ports == int32(r.cfg.Ports) && s.vcs == int32(r.cfg.VCs) &&
		s.depth == int32(r.cfg.Depth) && s.protected == r.cfg.FaultTolerant
}

// Bytes returns the heap bytes the state's two buffers retain, for the
// model checker's frontier accounting.
func (s *RouterState) Bytes() int {
	return cap(s.rec)*int(unsafe.Sizeof(int16(0))) + cap(s.flits)*int(unsafe.Sizeof(flit.Flit{}))
}

// Flag bits of the record's per-port and per-VC flag values.
const (
	portSA1Arb = 1 << iota
	portSA1Byp
	portSA2
	portRC0
	portRC1
	portXBMux
	portXBSec
)

const (
	vcOutBusy = 1 << iota
	vcVA1Faulty
	vcVA2Faulty
	vcHasEntry
)

const (
	vcVF = 1 << iota
	vcFSP
	vcDetour
)

// vcEntryLen is the number of record values in one VC entry.
const vcEntryLen = 10

// put appends v to a record.
func put(rec []int16, v int) []int16 {
	if int(int16(v)) != v {
		panic(fmt.Sprintf("core: SaveState: %d does not fit a saved router record (16-bit values)", v))
	}
	return append(rec, int16(v))
}

func bit(b bool, mask int) int {
	if b {
		return mask
	}
	return 0
}

// SaveState deep-copies the router's mutable state. cloneFlit maps each
// buffered flit to the copy the state keeps (by value: *cloneFlit(f));
// the caller supplies it so packet identity can be preserved across
// routers (the network snapshot maps every *flit.Packet to one clone).
// The copy's Pkt must not be the live packet: NI.tick and NI.consume
// stamp Packet.InjectedAt and EjectedAt in place, so a shared packet
// would let post-snapshot execution rewrite the snapshot. The flit
// itself is never written after flit.Segment built it.
func (r *Router) SaveState(cloneFlit func(*flit.Flit) *flit.Flit) *RouterState {
	return r.SaveStateInto(nil, cloneFlit)
}

// SaveStateInto is SaveState writing into old's storage: every field of
// old is overwritten and old is returned, so saving into a state the
// caller no longer needs allocates nothing beyond what cloneFlit does.
// The caller must own old outright — nothing may still expect to
// restore from it. The zero RouterState is storage for any router. A
// nil old, or one saved from a router of another configuration (port or
// VC count, buffer depth, protection), is left untouched and a fresh
// state is returned instead.
func (r *Router) SaveStateInto(old *RouterState, cloneFlit func(*flit.Flit) *flit.Flit) *RouterState {
	P, V := r.cfg.Ports, r.cfg.VCs
	s := old
	if s == nil || !s.fits(r) {
		s = new(RouterState)
	}
	s.ports, s.vcs, s.depth = int32(P), int32(V), int32(r.cfg.Depth)
	s.protected = r.cfg.FaultTolerant
	s.counters = r.Counters
	if s.rec == nil {
		// Empty storage: size both buffers for this state, so a fresh
		// save allocates each once. A VC that lends its arbiters while
		// Idle has an entry occupied does not count; append covers it.
		s.rec = make([]int16, 0, 1+4*len(r.grants)+P*(8+4*V)+vcEntryLen*r.occupied)
		if n := r.bufferedFlits(); n > 0 {
			s.flits = make([]flit.Flit, 0, n)
		}
	}
	rec, fl := s.rec[:0], s.flits[:0]

	rec = put(rec, len(r.grants))
	for _, g := range r.grants {
		rec = put(put(put(put(rec, int(g.inPort)), g.inVC), int(g.outPort)), bit(g.secondary, 1))
	}
	for p := 0; p < P; p++ {
		b := r.sa.Stage1(p)
		dw, rot := b.BypassState()
		flags := bit(b.Arb.Faulty(), portSA1Arb) | bit(b.BypassFaulty(), portSA1Byp) |
			bit(r.sa.Stage2(p).Faulty(), portSA2) | bit(r.rc[p].Faulty(0), portRC0) |
			bit(r.cfg.FaultTolerant && r.rc[p].Faulty(1), portRC1)
		if r.xbProt != nil {
			flags |= bit(r.xbProt.MuxFaulty(p), portXBMux) | bit(r.xbProt.SecondaryFaulty(p), portXBSec)
		} else {
			flags |= bit(r.xbBase.MuxFaulty(p), portXBMux)
		}
		rec = put(put(put(rec, r.rcScan[p]), r.saAdopted[p]), r.saAdoptAge[p])
		rec = put(put(put(put(rec, b.Arb.Prio()), dw), rot), r.sa.Stage2(p).Prio())
		rec = put(rec, flags)
		vcs, credits, busy := r.vcs[p*V:(p+1)*V], r.credits[p*V:(p+1)*V], r.outVCBusy[p*V:(p+1)*V]
		for v := 0; v < V; v++ {
			q := &vcs[v]
			entry := !q.IsReset()
			rec = put(put(put(rec, credits[v]), r.va.Stage1(p, v).Prio()), r.va.Stage2(p, v).Prio())
			rec = put(rec, bit(busy[v], vcOutBusy)|bit(r.va.Stage1Faulty(p, v), vcVA1Faulty)|
				bit(r.va.Stage2(p, v).Faulty(), vcVA2Faulty)|bit(entry, vcHasEntry))
			if entry {
				rec, fl = saveVC(rec, fl, q, cloneFlit)
			}
		}
	}
	s.rec, s.flits = rec, fl
	return s
}

// saveVC appends the entry of one input VC that is not in its reset
// state, and the clones of its buffered flits.
func saveVC(rec []int16, fl []flit.Flit, v *vc.VC, cloneFlit func(*flit.Flit) *flit.Flit) ([]int16, []flit.Flit) {
	rec = put(put(put(rec, int(v.G)), int(v.R)), v.OutVC)
	rec = put(put(put(rec, int(v.R2)), v.ID), int(v.SP))
	rec = put(rec, bit(v.VF, vcVF)|bit(v.FSP, vcFSP)|bit(v.Detour, vcDetour))
	rec = put(put(put(rec, v.DvcLo), v.DvcHi), v.Len())
	for _, f := range v.Flits() {
		fl = append(fl, *cloneFlit(f))
	}
	return rec, fl
}

// bufferedFlits returns the number of flits the input VCs hold: what one
// SaveState clones.
func (r *Router) bufferedFlits() int {
	n := 0
	for p, m := range r.occ {
		for ; m != 0; m &= m - 1 {
			n += r.inVC(p, bits.TrailingZeros64(m)).Len()
		}
	}
	return n
}

// RestoreState rewinds the router to a state saved by SaveState.
// cloneFlit maps each saved flit to a fresh copy installed in the
// router, so the state itself stays pristine and can be restored from
// again. It panics before touching the router when the state was saved
// from a router of another configuration. The router's I/O latches are
// cleared — the caller must restore at a network step boundary, where
// they are empty anyway.
func (r *Router) RestoreState(s *RouterState, cloneFlit func(*flit.Flit) *flit.Flit) {
	if s.ports == 0 || !s.fits(r) {
		panic(fmt.Sprintf("core: RestoreState: state of a %d-port %d-VC depth-%d router (protected %v) restored into a %d-port %d-VC depth-%d one (protected %v)",
			s.ports, s.vcs, s.depth, s.protected, r.cfg.Ports, r.cfg.VCs, r.cfg.Depth, r.cfg.FaultTolerant))
	}
	P, V := r.cfg.Ports, r.cfg.VCs
	rec, fl := s.rec, s.flits
	r.grants = r.grants[:0]
	i := 1
	for n := int(rec[0]); n > 0; i, n = i+4, n-1 {
		r.grants = append(r.grants, grant{inPort: topology.Port(rec[i]), inVC: int(rec[i+1]),
			outPort: topology.Port(rec[i+2]), secondary: rec[i+3] != 0})
	}
	for p := 0; p < P; p++ {
		b := r.sa.Stage1(p)
		port := rec[i : i+8 : i+8]
		i += 8
		r.rcScan[p], r.saAdopted[p], r.saAdoptAge[p] = int(port[0]), int(port[1]), int(port[2])
		b.Arb.SetPrio(int(port[3]))
		b.SetBypassState(int(port[4]), int(port[5]))
		r.sa.Stage2(p).SetPrio(int(port[6]))
		flags := port[7]
		b.Arb.SetFaulty(flags&portSA1Arb != 0)
		b.SetBypassFaulty(flags&portSA1Byp != 0)
		r.sa.Stage2(p).SetFaulty(flags&portSA2 != 0)
		r.rc[p].SetFaulty(0, flags&portRC0 != 0)
		if r.cfg.FaultTolerant {
			r.rc[p].SetFaulty(1, flags&portRC1 != 0)
		}
		if r.xbProt != nil {
			r.xbProt.SetMuxFaulty(p, flags&portXBMux != 0)
			r.xbProt.SetSecondaryFaulty(p, flags&portXBSec != 0)
		} else {
			r.xbBase.SetMuxFaulty(p, flags&portXBMux != 0)
		}
		vcs, credits, busy := r.vcs[p*V:(p+1)*V], r.credits[p*V:(p+1)*V], r.outVCBusy[p*V:(p+1)*V]
		for v := 0; v < V; v++ {
			slot := rec[i : i+4 : i+4]
			i += 4
			flags := slot[3]
			credits[v] = int(slot[0])
			r.va.Stage1(p, v).SetPrio(int(slot[1]))
			r.va.Stage2(p, v).SetPrio(int(slot[2]))
			busy[v] = flags&vcOutBusy != 0
			r.va.SetStage1Faulty(p, v, flags&vcVA1Faulty != 0)
			r.va.Stage2(p, v).SetFaulty(flags&vcVA2Faulty != 0)
			if q := &vcs[v]; flags&vcHasEntry != 0 {
				fl = restoreVC(q, rec[i:i+vcEntryLen], fl, cloneFlit)
				i += vcEntryLen
			} else {
				q.Clear()
				q.ResetPacketState()
				q.ClearBorrow()
			}
		}
	}
	if i != len(rec) || len(fl) != 0 {
		panic(fmt.Sprintf("core: RestoreState: read %d of %d record values, %d flits left over: save and restore disagree on the record layout", i, len(rec), len(fl)))
	}
	r.Counters = s.counters
	r.rebuildOccupancy()
	r.inFlits = r.inFlits[:0]
	r.inCredits = r.inCredits[:0]
	r.outFlits = r.outFlits[:0]
	r.outCredits = r.outCredits[:0]
	r.droppedPkts = r.droppedPkts[:0]
}

// restoreVC overwrites one input VC from its entry and its flits at the
// front of fl, and returns the flits that follow.
func restoreVC(v *vc.VC, entry []int16, fl []flit.Flit, cloneFlit func(*flit.Flit) *flit.Flit) []flit.Flit {
	_ = entry[vcEntryLen-1]
	v.G, v.R, v.OutVC = vc.GState(entry[0]), topology.Port(entry[1]), int(entry[2])
	v.R2, v.ID, v.SP = topology.Port(entry[3]), int(entry[4]), topology.Port(entry[5])
	v.VF, v.FSP, v.Detour = entry[6]&vcVF != 0, entry[6]&vcFSP != 0, entry[6]&vcDetour != 0
	v.DvcLo, v.DvcHi = int(entry[7]), int(entry[8])
	n := int(entry[9])
	v.Clear()
	for i := range fl[:n] {
		v.Push(cloneFlit(&fl[i]))
	}
	return fl[n:]
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
// Simulation-bookkeeping fields — packet ID and timestamps — are
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
			ivc := &r.vcs[p*V+v]
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
			b = appB(b, r.outVCBusy[p*V+v])
			b = appI(b, r.credits[p*V+v])
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

package core

import (
	"fmt"
	"math/bits"
	"unsafe"

	"gonoc/internal/canon"
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
// Save/Restore operate at the network step boundary, where the output
// latch (outFlits, outCredits) and the droppedPkts drain are empty by
// construction: the network's commit took them. The input latch
// (inFlits, inCredits) holds the traffic on the wires into the router
// there, which the network saves, restores and encodes with the rest of
// the node (Inputs); the router's triple leaves it out and RestoreState
// empties it. The cross-cycle state SaveState captures is: VC buffers
// and state fields, output-side credit/busy bookkeeping, pending SA
// grants (executed by next cycle's crossbar stage), arbiter priority
// and bypass registers, the RC scan and bypass-adoption pointers, fault
// flags, and the counters.

// RouterState is a deep copy of a Router's mutable architectural state
// at a network step boundary, produced by SaveState and consumed by
// RestoreState. It is one sequential record plus the buffered flits:
// three objects however many ports and VCs the router has, where the
// field-by-field layout it replaced was ten. The zero RouterState is
// empty storage SaveStateInto fills for any router. The tests round-trip
// routers through it in lockstep with refRouter (refrouter_test.go).
//
// rec is written and read front to back, in this order:
//
//	len(grants), then inPort, inVC, outPort, secondary per grant
//	per port:  rcScan, saAdopted, saAdoptAge, SA stage-1 priority,
//	           bypass default winner, bypass grants since rotation,
//	           SA stage-2 priority, port flags (the seven fault bits)
//	  per VC:  credits, VA stage-1 priority, VA stage-2 priority,
//	           VC flags (the outBusy bit, the two VA fault bits, entry follows)
//	           and, only for a VC that is not in its reset state
//	           (vc.VC.IsReset), its entry: G, R, OutVC, R2, ID, SP,
//	           VF|FSP|Detour, DvcLo, DvcHi, number of buffered flits
//
// Every value is a port, a VC index, an arbiter priority (below
// Ports*VCs), a credit count (at most Depth) or a rotation counter (below
// BypassRotatePeriod), so the record is []int16 and put panics on a
// value that does not fit instead of truncating it: router.Config caps
// ports and VCs at 64 and the depth and rotate period at 32,767, so
// every value fits. The flits of the VCs that have an entry sit in flits,
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
		rec = put(put(put(put(rec, int(g.inPort)), int(g.inVC)), int(g.outPort)), bit(g.secondary, 1))
	}
	outBusy, va1Faulty := row(r.words, rowOutBusy, P), row(r.words, rowVA1Faulty, P)
	rcScan, adopted, adoptAge := row(r.portInts, rowRCScan, P), row(r.portInts, rowSAAdopted, P), row(r.portInts, rowSAAdoptAge, P)
	va1, va2, sa2 := row(r.arbs, arbVA1, P*V), row(r.arbs, arbVA2, P*V), r.arbs[arbSA2*P*V:]
	for p := 0; p < P; p++ {
		b := &r.sa1[p]
		dw, rot := b.BypassState()
		// The baseline's duplicate RC and secondary crossbar bits are
		// never set.
		flags := bit(b.Arb.Faulty(), portSA1Arb) | bit(b.BypassFaulty(), portSA1Byp) |
			bit(sa2[p].Faulty(), portSA2) | bit(r.rcFaulty[0]>>uint(p)&1 != 0, portRC0) |
			bit(r.rcFaulty[1]>>uint(p)&1 != 0, portRC1) |
			bit(r.xb.MuxFaulty(p), portXBMux) | bit(r.xb.SecondaryFaulty(p), portXBSec)
		rec = put(put(put(rec, int(rcScan[p])), int(adopted[p])), int(adoptAge[p]))
		rec = put(put(put(put(rec, b.Arb.Prio()), dw), rot), sa2[p].Prio())
		rec = put(rec, flags)
		vcs, credits, busy, va1, va2 := r.vcs[p*V:(p+1)*V], r.credits[p*V:(p+1)*V], outBusy[p], va1[p*V:], va2[p*V:]
		for v := 0; v < V; v++ {
			q := &vcs[v]
			entry := !q.IsReset()
			rec = put(put(put(rec, int(credits[v])), va1[v].Prio()), va2[v].Prio())
			rec = put(rec, bit(busy>>uint(v)&1 != 0, vcOutBusy)|bit(va1Faulty[p]>>uint(v)&1 != 0, vcVA1Faulty)|
				bit(va2[v].Faulty(), vcVA2Faulty)|bit(entry, vcHasEntry))
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
	rec = put(put(put(rec, int(v.G)), int(v.R)), int(v.OutVC))
	rec = put(put(put(rec, int(v.R2)), int(v.ID)), int(v.SP))
	rec = put(rec, bit(v.VF, vcVF)|bit(v.FSP, vcFSP)|bit(v.Detour, vcDetour))
	rec = put(put(put(rec, int(v.DvcLo)), int(v.DvcHi)), v.Len())
	for _, f := range v.Flits() {
		fl = append(fl, *cloneFlit(f))
	}
	return rec, fl
}

// bufferedFlits returns the number of flits the input VCs hold: what one
// SaveState clones.
func (r *Router) bufferedFlits() int {
	n := 0
	for p, m := range r.occ() {
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
// emptied: the caller restores at a network step boundary, where the
// output latch is empty anyway, and refills the input latch itself
// (AcceptFlit, AcceptCredit) when it saved one.
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
		r.grants = append(r.grants, grant{inPort: topology.Port(rec[i]), inVC: int8(rec[i+1]),
			outPort: topology.Port(rec[i+2]), secondary: rec[i+3] != 0})
	}
	outBusy, va1Faulty := row(r.words, rowOutBusy, P), row(r.words, rowVA1Faulty, P)
	rcScan, adopted, adoptAge := row(r.portInts, rowRCScan, P), row(r.portInts, rowSAAdopted, P), row(r.portInts, rowSAAdoptAge, P)
	va1, va2, sa2 := row(r.arbs, arbVA1, P*V), row(r.arbs, arbVA2, P*V), r.arbs[arbSA2*P*V:]
	for p := 0; p < P; p++ {
		b := &r.sa1[p]
		port := rec[i : i+8 : i+8]
		i += 8
		rcScan[p], adopted[p], adoptAge[p] = port[0], port[1], port[2]
		b.Arb.SetPrio(int(port[3]))
		b.SetBypassState(int(port[4]), int(port[5]))
		sa2[p].SetPrio(int(port[6]))
		flags := port[7]
		b.Arb.SetFaulty(flags&portSA1Arb != 0)
		b.SetBypassFaulty(flags&portSA1Byp != 0)
		sa2[p].SetFaulty(flags&portSA2 != 0)
		r.rcFaulty[0] = setBit(r.rcFaulty[0], p, flags&portRC0 != 0)
		r.rcFaulty[1] = setBit(r.rcFaulty[1], p, flags&portRC1 != 0)
		r.xb.SetMuxFaulty(p, flags&portXBMux != 0)
		r.xb.SetSecondaryFaulty(p, flags&portXBSec != 0)
		vcs, credits, va1, va2 := r.vcs[p*V:(p+1)*V], r.credits[p*V:(p+1)*V], va1[p*V:], va2[p*V:]
		var busy uint64
		for v := 0; v < V; v++ {
			slot := rec[i : i+4 : i+4]
			i += 4
			flags := slot[3]
			credits[v] = slot[0]
			va1[v].SetPrio(int(slot[1]))
			va2[v].SetPrio(int(slot[2]))
			if flags&vcOutBusy != 0 {
				busy |= 1 << uint(v)
			}
			va1Faulty[p] = setBit(va1Faulty[p], v, flags&vcVA1Faulty != 0)
			va2[v].SetFaulty(flags&vcVA2Faulty != 0)
			if q := &vcs[v]; flags&vcHasEntry != 0 {
				fl = restoreVC(q, rec[i:i+vcEntryLen], fl, cloneFlit)
				i += vcEntryLen
			} else {
				q.Clear()
				q.ResetPacketState()
				q.ClearBorrow()
			}
		}
		outBusy[p] = busy
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
	v.G, v.R, v.OutVC = vc.GState(entry[0]), topology.Port(entry[1]), int8(entry[2])
	v.R2, v.ID, v.SP = topology.Port(entry[3]), int8(entry[4]), topology.Port(entry[5])
	v.VF, v.FSP, v.Detour = entry[6]&vcVF != 0, entry[6]&vcFSP != 0, entry[6]&vcDetour != 0
	v.DvcLo, v.DvcHi = int8(entry[7]), int8(entry[8])
	n := int(entry[9])
	v.Clear()
	for i := range fl[:n] {
		v.Push(cloneFlit(&fl[i]))
	}
	return fl[n:]
}

// AppendCanonicalFlit appends a behaviour-relevant encoding of one flit:
// kind, flit sequence number, and its packet's logical identity
// (canon.Packet, which leaves the packet ID and timestamps out).
func AppendCanonicalFlit(b []byte, f *flit.Flit) []byte {
	b = append(b, byte(f.Kind))
	b = canon.Int(b, f.Seq)
	return canon.Packet(b, f.Pkt)
}

// AppendCanonical appends the router's behaviour-relevant state to b and
// returns the extended slice. Two routers with equal canonical encodings
// (and equal configurations) are bisimilar: every future Tick sequence
// produces the same architectural behaviour. Counters are excluded (they
// never feed back into arbitration), as are the I/O latches: the output
// latch is empty at the step boundary where this must be called, and the
// network encodes the input latch with the node.
func (r *Router) AppendCanonical(b []byte) []byte {
	P, V := r.cfg.Ports, r.cfg.VCs
	outBusy, va1Faulty := row(r.words, rowOutBusy, P), row(r.words, rowVA1Faulty, P)
	rcScan, adopted, adoptAge := row(r.portInts, rowRCScan, P), row(r.portInts, rowSAAdopted, P), row(r.portInts, rowSAAdoptAge, P)
	va1, va2, sa2 := row(r.arbs, arbVA1, P*V), row(r.arbs, arbVA2, P*V), r.arbs[arbSA2*P*V:]
	for p := 0; p < P; p++ {
		for v := 0; v < V; v++ {
			ivc := &r.vcs[p*V+v]
			b = append(b, byte(ivc.G))
			b = canon.Int(b, int(ivc.R))
			b = canon.Int(b, int(ivc.OutVC))
			b = canon.Int(b, int(ivc.R2))
			b = canon.Bool(b, ivc.VF)
			b = canon.Int(b, int(ivc.ID))
			b = canon.Int(b, int(ivc.SP))
			b = canon.Bool(b, ivc.FSP)
			// Detour is observational only (stall attribution) and is
			// excluded like the counters: it never feeds arbitration.
			b = canon.Int(b, int(ivc.DvcLo))
			b = canon.Int(b, int(ivc.DvcHi))
			fs := ivc.Flits()
			b = canon.Int(b, len(fs))
			for _, f := range fs {
				b = AppendCanonicalFlit(b, f)
			}
			b = canon.Bool(b, outBusy[p]>>uint(v)&1 != 0)
			b = canon.Int(b, int(r.credits[p*V+v]))
			b = canon.Int(b, va1[p*V+v].Prio())
			b = canon.Int(b, va2[p*V+v].Prio())
			b = canon.Bool(b, va1Faulty[p]>>uint(v)&1 != 0)
			b = canon.Bool(b, va2[p*V+v].Faulty())
		}
		sa1 := &r.sa1[p]
		b = canon.Int(b, sa1.Arb.Prio())
		dw, rot := sa1.BypassState()
		b = canon.Int(b, dw)
		b = canon.Int(b, rot)
		b = canon.Bool(b, sa1.Arb.Faulty())
		b = canon.Bool(b, sa1.BypassFaulty())
		b = canon.Int(b, sa2[p].Prio())
		b = canon.Bool(b, sa2[p].Faulty())
		// The baseline has no duplicate RC unit or secondary paths: its
		// encoding has no byte for them.
		b = canon.Bool(b, r.rcFaulty[0]>>uint(p)&1 != 0)
		if r.cfg.FaultTolerant {
			b = canon.Bool(b, r.rcFaulty[1]>>uint(p)&1 != 0)
		}
		b = canon.Bool(b, r.xb.MuxFaulty(p))
		if r.cfg.FaultTolerant {
			b = canon.Bool(b, r.xb.SecondaryFaulty(p))
		}
		b = canon.Int(b, int(rcScan[p]))
		b = canon.Int(b, int(adopted[p]))
		b = canon.Int(b, int(adoptAge[p]))
	}
	b = canon.Int(b, len(r.grants))
	for _, g := range r.grants {
		b = canon.Int(b, int(g.inPort))
		b = canon.Int(b, int(g.inVC))
		b = canon.Int(b, int(g.outPort))
		b = canon.Bool(b, g.secondary)
	}
	return b
}

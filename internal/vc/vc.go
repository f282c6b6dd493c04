// Package vc models virtual channels and a router's slab of them.
//
// Each input port of the paper's router (Figure 3d) holds V virtual
// channels, each a small flit FIFO plus per-VC state fields:
//
//	G — the VC's pipeline state this cycle (idle / routing / VC
//	    allocation / active)
//	R — the routing computation result (requested output port)
//	O — the VC allocation result (assigned downstream VC)
//	P — FIFO read/write pointers (implicit in the buffer here)
//	C — credit count (tracked by the upstream output side in gonoc)
//
// The protected router (Figure 4) adds five fields that implement arbiter
// sharing and the crossbar secondary path:
//
//	R2  — the RC result a borrowing VC deposits with the lender
//	VF  — flag: this VC's arbiters are currently lent out
//	ID  — identity of the borrowing VC
//	SP  — the output port to arbitrate for when using the secondary path
//	FSP — flag: the secondary path must be used
package vc

import (
	"fmt"

	"gonoc/internal/flit"
	"gonoc/internal/topology"
)

// GState is the per-VC pipeline state (the 'G' field of Figure 3d).
type GState uint8

const (
	// Idle: the VC holds no packet.
	Idle GState = iota
	// Routing: a head flit is waiting for (or in) routing computation.
	Routing
	// VCAlloc: routing is done; the head flit competes for a downstream VC.
	VCAlloc
	// Active: a downstream VC is allocated; flits compete in switch
	// allocation until the tail departs.
	Active
	// Dropping: routing found the destination unreachable (network
	// partitioned by link/router faults); buffered flits are discarded
	// one per cycle, returning credits upstream, until the tail frees
	// the VC.
	Dropping
)

// String implements fmt.Stringer.
func (g GState) String() string {
	switch g {
	case Idle:
		return "I"
	case Routing:
		return "R"
	case VCAlloc:
		return "V"
	case Active:
		return "A"
	case Dropping:
		return "D"
	default:
		return fmt.Sprintf("GState(%d)", uint8(g))
	}
}

// None is the sentinel for "no VC" in ID/OutVC fields.
const None = -1

// VC is a single virtual channel: a flit FIFO plus state fields. Every
// state field is a byte — a port, a VC index (router.Config caps both at
// 64), the G state or a flag — so a VC is its buffer header and twelve
// bytes, 40 in all: a router holds its VCs by value in one slab
// (NewPorts), and twenty of them fit in 1 KiB.
type VC struct {
	// buf is the FIFO; its capacity is the buffer depth.
	buf []*flit.Flit

	// Index is this VC's position within its input port.
	//noc:derived immutable slot identity, fixed at construction
	Index int8

	// G is the pipeline state.
	G GState
	// R is the routing computation result ('R' field).
	R topology.Port
	// OutVC is the allocated downstream VC ('O' field), or None.
	OutVC int8

	// R2 holds a borrowing VC's routing result (protected router only).
	R2 topology.Port
	// ID names the VC borrowing the arbiters, or None.
	ID int8
	// SP is the output port to request in SA when FSP is set.
	SP topology.Port

	// DvcLo and DvcHi restrict VC allocation to the downstream VC range
	// [DvcLo, DvcHi), set by fault-aware routing to pin the packet to a
	// deadlock-free routing layer. Both zero (the reset state) means no
	// restriction: the full message-class range is eligible.
	DvcLo, DvcHi int8

	// VF is set while this VC's arbiters serve another VC.
	VF bool
	// FSP indicates the crossbar secondary path must be used.
	FSP bool
	// Detour is set when fault-aware routing sent this packet off the
	// baseline XY path at this hop. It is observational only — the
	// stall scan attributes the packet's waits to the fault
	// (route-blocked) while it holds — and never feeds back into
	// arbitration.
	//noc:derived observational only: saved and restored, but excluded from the canonical encoding because it never feeds arbitration
	Detour bool
}

// NewVC returns an empty VC with the given buffer depth. It panics if
// depth < 1.
func NewVC(index, depth int) *VC {
	if depth < 1 {
		panic(fmt.Sprintf("vc: invalid depth %d", depth))
	}
	// The buffer is fully pre-allocated: credit flow control bounds it at
	// depth, and growing it lazily would put first-fill allocations on
	// the steady-state tick path.
	v := &VC{}
	v.init(index, make([]*flit.Flit, 0, depth))
	return v
}

// init puts v in its reset state over buf, whose capacity is the depth.
func (v *VC) init(index int, buf []*flit.Flit) {
	*v = VC{Index: int8(index), buf: buf, OutVC: None, ID: None}
}

// Depth returns the buffer capacity in flits.
func (v *VC) Depth() int { return cap(v.buf) }

// Len returns the number of buffered flits.
func (v *VC) Len() int { return len(v.buf) }

// Free returns the remaining buffer space in flits.
func (v *VC) Free() int { return cap(v.buf) - len(v.buf) }

// Empty reports whether the buffer holds no flits.
func (v *VC) Empty() bool { return len(v.buf) == 0 }

// Push appends a flit. It panics on overflow — credit-based flow control
// must make overflow impossible, so an overflow is a simulator bug.
func (v *VC) Push(f *flit.Flit) {
	if v.Free() == 0 {
		panic(fmt.Sprintf("vc: overflow on VC %d (depth %d); flow-control bug", v.Index, cap(v.buf)))
	}
	v.buf = append(v.buf, f)
}

// Front returns the flit at the head of the FIFO without removing it, or
// nil when empty.
func (v *VC) Front() *flit.Flit {
	if len(v.buf) == 0 {
		return nil
	}
	return v.buf[0]
}

// Pop removes and returns the flit at the head of the FIFO. It panics when
// empty.
func (v *VC) Pop() *flit.Flit {
	if len(v.buf) == 0 {
		panic(fmt.Sprintf("vc: pop from empty VC %d", v.Index))
	}
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	return f
}

// Flits returns the buffered flits in FIFO order. The returned slice
// aliases the VC's buffer: callers (checkpoint/restore, the model
// checker's canonical encoder) must treat it as read-only and must not
// hold it across a Push/Pop.
func (v *VC) Flits() []*flit.Flit { return v.buf }

// Clear empties the buffer, for checkpoint/restore: RestoreState refills
// it with Push, front first.
func (v *VC) Clear() { v.buf = v.buf[:0] }

// ResetPacketState clears the allocation fields after a tail flit departs,
// returning the VC to Idle. Buffered flits (of a next packet, under
// non-atomic reallocation) are not touched; gonoc uses atomic reallocation
// so the buffer is empty here.
func (v *VC) ResetPacketState() {
	v.G = Idle
	v.R = topology.Local
	v.OutVC = None
	v.FSP = false
	v.SP = topology.Local
	v.Detour = false
	v.DvcLo, v.DvcHi = 0, 0
}

// ClearBorrow clears the borrow-request fields (R2/VF/ID) after the lent
// arbiters finish an allocation on behalf of another VC.
func (v *VC) ClearBorrow() {
	v.R2 = topology.Local
	v.VF = false
	v.ID = None
}

// IsReset reports whether the VC is in the state NewVC builds and
// Clear, ResetPacketState and ClearBorrow together return it to: empty,
// Idle, every field at its sentinel. A saved router state leaves such
// VCs out and restore resets the live VC instead.
func (v *VC) IsReset() bool {
	return len(v.buf) == 0 && v.G == Idle && v.R == topology.Local && v.OutVC == None &&
		v.R2 == topology.Local && !v.VF && v.ID == None && v.SP == topology.Local && !v.FSP &&
		!v.Detour && v.DvcLo == 0 && v.DvcHi == 0
}

// String implements fmt.Stringer.
func (v *VC) String() string {
	return fmt.Sprintf("VC%d{G=%v R=%v O=%d len=%d}", v.Index, v.G, v.R, v.OutVC, v.Len())
}

// NewPorts returns the input VCs of a router, ports ports of nvc virtual
// channels of the given depth, as one slab: port p's VC v is at p*nvc+v,
// and the buffers are carved from one arena. Two allocations, however
// many ports and VCs. The slab is the one view of a router's VCs: a
// port's VCs are the window [p*nvc, (p+1)*nvc). It panics if nvc < 1 or
// depth < 1.
func NewPorts(ports, nvc, depth int) []VC {
	if nvc < 1 {
		panic(fmt.Sprintf("vc: invalid VC count %d", nvc))
	}
	if depth < 1 {
		panic(fmt.Sprintf("vc: invalid depth %d", depth))
	}
	vcs := make([]VC, ports*nvc)
	bufs := make([]*flit.Flit, ports*nvc*depth)
	for i := range vcs {
		// A three-index slice pins the capacity, which is the depth.
		vcs[i].init(i%nvc, bufs[i*depth:i*depth:(i+1)*depth])
	}
	return vcs
}

// FindLender scans one input port's VCs (its window of the slab) for one
// whose arbiters can be borrowed by VC `requester`: per Section V-B1 the
// borrower "scan[s] through the 'G' state field of all the other input
// VCs and pick[s] out the first VC it encounters that is either idle or
// in switch allocation state". VCs whose own arbiter sets are faulty (bit
// i of arbFaulty set for VC i) or that are already lending (VF set) are
// skipped. Returns the lender index or None.
func FindLender(port []VC, requester int, arbFaulty uint64) int {
	for i := range port {
		v := &port[i]
		if i == requester || arbFaulty>>uint(i)&1 != 0 || v.VF {
			continue
		}
		if v.G == Idle || v.G == Active {
			return i
		}
	}
	return None
}

// Package core implements the paper's primary contribution: a NoC router
// whose four pipeline stages — Routing Computation (RC), Virtual-channel
// Allocation (VA), Switch Allocation (SA) and Crossbar traversal (XB) —
// each tolerate a permanent fault (Poluri & Louri, "An Improved Router
// Design for Reliable On-Chip Networks", IPDPS 2014).
//
// One Router type implements both the unprotected baseline and the
// protected router (Config.FaultTolerant); in the fault-free case the two
// behave identically, exactly as the paper's protected crossbar "behaves
// just like the baseline crossbar" without faults. The per-stage
// mechanisms are:
//
//   - RC: a duplicate RC unit per input port is switched in when the
//     primary is faulty (Section V-A).
//   - VA stage 1: a VC with a faulty arbiter set borrows the arbiters of
//     the first sibling VC found idle or in switch-allocation state, via
//     the R2/VF/ID state fields (Section V-B1, Figure 4). If every
//     sibling is busy allocating, the borrower waits a cycle (Scenario 2).
//   - VA stage 2: a faulty per-downstream-VC arbiter simply loses its VC;
//     the retry re-arbitrates for a different downstream VC one cycle
//     later using the inherent VC redundancy (Section V-B3).
//   - SA stage 1: a bypass path names a rotating default-winner VC; when
//     the default winner is empty, flits and state are transferred into it
//     from a sibling VC in one cycle (Section V-C1, Figure 5).
//   - SA stage 2 + XB: a secondary crossbar path (Figure 6) reaches an
//     output port through the neighbouring port's multiplexer and arbiter,
//     directed by the SP/FSP state fields set at RC time (Sections V-C2,
//     V-D).
package core

import (
	"fmt"
	"math/bits"

	"gonoc/internal/arbiter"
	"gonoc/internal/crossbar"
	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// CreditIn is a credit arriving at a router's output side: the downstream
// consumer freed one buffer slot of VC (and the whole VC when VCFree).
// Its VC is a byte, the type of router.OutFlit.DownVC, which a credit
// returns.
type CreditIn struct {
	// Out is the output port of this router the credit applies to.
	Out topology.Port
	// VC is the downstream VC index.
	VC int8
	// VCFree marks the downstream VC free for reallocation.
	VCFree bool
}

// RouteFn overrides the per-hop routing computation with a network-level
// fault-aware function. It receives the current router, the input port
// the packet occupies (Local for freshly injected packets), the input VC
// index and the destination, and returns the output port plus the
// downstream VC range [dvcLo, dvcHi) the packet must allocate from (the
// deadlock-avoidance layer). ok=false means no path to the destination
// survives the current fault set; the router then discards the packet.
type RouteFn func(cur int, in topology.Port, vcIdx int, dst int) (out topology.Port, dvcLo, dvcHi int, ok bool)

// grant is one switch-allocation winner, executed by the crossbar stage
// the following cycle: four bytes.
type grant struct {
	inPort    topology.Port
	inVC      int8
	outPort   topology.Port // actual destination output port
	secondary bool          // traverse via the protected crossbar's secondary path
}

// saWinner is one input port's stage-1 switch-allocation winner, held in
// the router's reusable per-port scratch buffer (saWinners) between the
// two allocator stages: four bytes.
type saWinner struct {
	vcIdx     int8
	outPort   topology.Port
	secondary bool
	bypass    bool
}

// Counters tallies fault-tolerance mechanism activity and basic traffic,
// for tests and the latency analysis.
type Counters struct {
	// FlitsRouted counts flits that traversed the crossbar.
	FlitsRouted uint64
	// RCDuplicateUses counts routing computations served by the duplicate
	// RC unit.
	RCDuplicateUses uint64
	// VA1Borrows counts successful arbiter borrows (Section V-B1).
	VA1Borrows uint64
	// VA1BorrowStalls counts cycles a VC wanted to borrow but found no
	// lender (Scenario 2 waits).
	VA1BorrowStalls uint64
	// VA2Retries counts stage-2 allocation attempts lost to a faulty
	// stage-2 arbiter (each costs one recompute cycle, Section V-B3).
	VA2Retries uint64
	// SABypassGrants counts stage-1 grants served by the bypass path.
	SABypassGrants uint64
	// SATransfers counts VC-to-VC flit/state transfers feeding the bypass
	// default winner (each costs one cycle, Section V-C1).
	SATransfers uint64
	// XBSecondary counts crossbar traversals through the secondary path.
	XBSecondary uint64
	// Reroutes counts routing computations where the fault-aware route
	// function diverged from dimension-ordered XY to detour around a dead
	// link or router.
	Reroutes uint64
}

// FlitIn is a flit arriving at a router's input side: what router.InFlit
// carries, with the port and VC a byte each (router.Config caps ports and
// VCs at 64). The input latch holds a cycle's worth of them per router,
// so their width is most of what the latch costs; latched credits are
// CreditIn, narrow already.
type FlitIn struct {
	F  *flit.Flit
	In topology.Port
	VC int8
}

// Router is a P-port, V-VC, 4-stage pipelined wormhole router with
// credit-based flow control. It implements both the baseline and the
// paper's fault-tolerant design, selected by Config.FaultTolerant.
//
// A router is one block: the fields a quiescent tick reads (the latches,
// the grant list, the occupancy totals) come first so an idle router
// costs the few lines they share, and the headers an active tick starts
// from follow them. Its VCs are held by value in one slab with their
// buffers in one arena (vc.NewPorts), and its per-port and per-VC rows
// sit in four more blocks, one per element type — the words, the 16-bit
// counts and pointers, the round-robin arbiters, the SA stage-1 bypassed
// arbiters — each behind one slice header (the credits have a second).
// A row is found at an offset computed from (Ports, VCs) by an accessor
// (the row* and arb* constants below), not through a header of its own.
// The output-side bookkeeping is flat, indexed p*VCs+v like the slab,
// and the fault words, arbiters and crossbar are the router's own, so a
// tick reaches any VC, credit or arbiter through one slice header
// instead of a chain of pointers.
type Router struct {
	// The input latch: what arrives for the next Tick, which buffers the
	// flits and applies the credits. The network files the traffic of
	// the links into this router straight into it during its commit, so
	// at a step boundary it holds what is on those wires; the network's
	// node section saves, restores and encodes it (Inputs), and
	// RestoreState empties it.
	inFlits   []FlitIn   //noc:derived input latch: the network's node section saves, restores and encodes it through Inputs and AcceptFlit
	inCredits []CreditIn //noc:derived input latch: the network's node section saves, restores and encodes it through Inputs and AcceptCredit
	// The output latch, drained by the network's commit: empty at the
	// step boundary.
	outFlits   []router.OutFlit //noc:derived I/O latch, empty at the step boundary
	outCredits []router.Credit  //noc:derived I/O latch, empty at the step boundary

	// occupied counts the set bits of the occupancy words (occ).
	//noc:derived recomputed from the VC G states by RestoreState
	occupied int
	// sa1Faults counts the input ports whose SA stage-1 arbiter is faulty.
	//noc:derived recomputed from the SA stage-1 fault bits by RestoreState
	sa1Faults int

	grants []grant

	cfg router.Config

	// vcs is the slab of input VCs, VC v of port p at p*VCs+v, and the
	// router's one view of them: the stages, InputVC and FindLender all
	// index it (inVC, portVCs).
	vcs []vc.VC

	// words is the block of the router's uint64 rows (the row* constants
	// and their accessors): per port the occupancy and stage words, the
	// busy, VA stage-1 fault and stage-2 request words; per VC its class
	// word; per downstream VC its VA stage-2 request set; and, when
	// observability is bound, per port the stall scan's advance marks.
	// The busy and fault rows are saved state, the others derived or
	// scratch, as their accessors say.
	words []uint64
	// The 16-bit rows are one allocation, behind two headers. credits
	// holds the router's credit count of downstream VC v of output p at
	// p*VCs+v — this router as upstream of each output port's downstream
	// buffers, 16-bit (router.Config caps the depth at 32,767) — and has
	// a header of its own so that every change to a credit count is a
	// write to this field, which the creditflow analyzer confines to the
	// audited accessors. portInts follows it: per port rcScan, saAdopted
	// and saAdoptAge (the rowRCScan constants and their accessors).
	credits  []int16
	portInts []int16
	// arbs is the block of the round-robin arbiters (Figure 3a/3b): VA
	// stage 1, VA stage 2 and SA stage 2 (va1, va2, sa2).
	arbs []arbiter.RoundRobin
	// sa1[p] is input port p's SA stage-1 v:1 arbiter with the protected
	// router's bypass path.
	sa1 []arbiter.Bypassed
	// xb is the crossbar, the protected one in both designs: the baseline
	// only ever traverses the primary paths.
	xb crossbar.Protected

	// dropping counts the VCs in vc.Dropping.
	//noc:derived recomputed from the VC G states by RestoreState
	dropping int
	// Bit p of rcPorts (vaPorts) is set iff rcWait[p] (vaWait[p]) is
	// non-zero: the ports RC and VA stage 1 visit.
	//noc:derived recomputed from the VC G states by RestoreState
	rcPorts uint64
	//noc:derived recomputed from the VC G states by RestoreState
	vaPorts uint64
	// pathOK has bit out set iff output out's regular path is usable
	// (primaryPathUsable), so RC and SA test one bit per VC instead of
	// probing the SA stage-2 arbiter and the crossbar multiplexer. The two
	// setters of those fault bits and RestoreState recompute it.
	//noc:derived recomputed from the SA stage-2 and crossbar fault bits by RestoreState
	pathOK uint64

	// ID is the router's node id in the mesh.
	//noc:derived immutable identity, fixed at construction
	ID int
	//noc:derived immutable configuration, fixed at construction
	topo topology.Topology

	// Bit p of rcFaulty[c] marks RC copy c of input port p faulty: copy 0
	// is the port's RC unit, copy 1 the protected router's duplicate,
	// switched in when the primary is faulty (Section V-A).
	rcFaulty [2]uint64

	// saWinners is the switch allocator's per-port scratch buffer: stage
	// 1 writes the entries of the ports that won and stage 2 reads only
	// those, so it is never reset.
	//noc:derived per-cycle scratch, written before it is read every Tick
	saWinners []saWinner

	// routeFn, when non-nil, replaces the RC units' XY computation with a
	// network-level fault-aware function (see RouteFn).
	//noc:derived immutable wiring, installed at network construction
	routeFn RouteFn
	// droppedPkts collects packets whose destination routing declared
	// unreachable this cycle; the network drains them via TakeDropped.
	//noc:derived per-cycle scratch, drained by the network before the step boundary
	droppedPkts []*flit.Packet

	// Counters tallies mechanism activity.
	//noc:derived observational only: saved and restored, but excluded from the canonical encoding because counters never feed back into arbitration
	Counters Counters

	// obs is the pre-bound observability handle (nil when disabled, the
	// default). Its methods are no-ops on nil and inline to one nil test,
	// so the stages call it unguarded and the disabled hot path stays
	// allocation-free.
	//noc:derived immutable wiring, bound at network construction; observational only
	obs *obs.RouterObs
}

// The rows of the word block that are one word per port, in block order.
// classWord (VCs words), va2req (va2Words per downstream VC) and, on an
// observed router, advanced (one per port) follow them.
const (
	rowOcc = iota
	rowRCWait
	rowVAWait
	rowOutBusy
	rowVA1Faulty
	rowVA2Any
	rowSA2Req
	wordRows
)

// The rows of portInts, one value per port each, in block order.
const (
	rowRCScan = iota
	rowSAAdopted
	rowSAAdoptAge
	intRows
)

// row returns row k of block, whose rows are n elements wide.
func row[T any](block []T, k, n int) []T { return block[k*n : (k+1)*n : (k+1)*n] }

// occ[p] has bit v set iff VC (p, v) is not vc.Idle (router.Config caps
// VCs at 64 so a port fits one word). Like the stage words below it is
// derived from the VCs' G fields and the SA stage-1 fault bits so the
// stages visit only VCs that hold a packet and Tick can return early on
// a quiescent router. It is maintained where a VC leaves or re-enters
// Idle (vcOccupy, vcRelease), where one starts Dropping (rcStage) and in
// SetSA1Fault; CheckOccupancy recomputes it, and RestoreState rebuilds
// it (rebuildOccupancy).
func (r *Router) occ() []uint64 { return row(r.words, rowOcc, r.cfg.Ports) }

// rcWait[p] has bit v set iff VC (p, v) is in vc.Routing, vaWait[p] iff
// it is in vc.VCAlloc: derived like occ, so that RC and VA stage 1 visit
// only the VCs in their own state and SA stage 1 skips them. They move
// at the G transitions into and out of those two states: Idle→Routing
// in acceptInputs, Routing→VCAlloc and Routing→Dropping in rcStage,
// VCAlloc→Active in VA stage 2.
func (r *Router) rcWait() []uint64 { return row(r.words, rowRCWait, r.cfg.Ports) }

// vaWait is rcWait's twin for vc.VCAlloc.
func (r *Router) vaWait() []uint64 { return row(r.words, rowVAWait, r.cfg.Ports) }

// outBusy[p] has bit v set while downstream VC (p, v) is allocated: VA
// stage 2 sets it, its VC-free credit clears it. Saved state.
func (r *Router) outBusy() []uint64 { return row(r.words, rowOutBusy, r.cfg.Ports) }

// va1Faulty[p] has bit v set when input VC (p, v)'s VA stage-1 arbiter
// set is faulty. Saved state.
func (r *Router) va1Faulty() []uint64 { return row(r.words, rowVA1Faulty, r.cfg.Ports) }

// va2any[out] has bit dvc set while downstream VC (out, dvc) holds a VA
// stage-2 request: scratch, zero outside vaStage.
func (r *Router) va2any() []uint64 { return row(r.words, rowVA2Any, r.cfg.Ports) }

// sa2req[out] is SA stage 2's request word of output out, bit p set when
// input port p's winner requests it: scratch, zero outside saStage.
func (r *Router) sa2req() []uint64 { return row(r.words, rowSA2Req, r.cfg.Ports) }

// word returns word p of row k of the word block, one of the rows that
// are a word per port: what the single-word updates of the stages take.
func (r *Router) word(k, p int) *uint64 { return &r.words[k*r.cfg.Ports+p] }

// classWord[v] has the downstream VCs of input VC v's message class set:
// what VA stage 1 requests from when routing pinned no VC layer.
// Immutable configuration.
func (r *Router) classWord() []uint64 {
	lo := wordRows * r.cfg.Ports
	return r.words[lo : lo+r.cfg.VCs : lo+r.cfg.VCs]
}

// va2Words is the number of words in one downstream VC's VA stage-2
// request set: one bit per input VC.
func (r *Router) va2Words() int { return (r.cfg.Ports*r.cfg.VCs + 63) >> 6 }

// va2req holds the VA stage-2 request sets, va2Words words per
// downstream VC: the set of downstream VC (out, dvc) starts at word
// (out*VCs+dvc)*va2Words, and input VC (p, v) is its bit p*VCs+v
// (va2Bit), the index the (Ports·VCs)-input arbiter gives that input.
// Stage 1 sets bits and stage 2 clears them as it consumes them, so the
// sets are zero outside vaStage.
func (r *Router) va2req() []uint64 {
	lo := wordRows*r.cfg.Ports + r.cfg.VCs
	hi := lo + r.cfg.Ports*r.cfg.VCs*r.va2Words()
	return r.words[lo:hi:hi]
}

// va2Bit returns where input VC (p, v) sits in a VA stage-2 request set
// of routers with V VCs per port: the word of the set and the bit in it.
func va2Bit(p, v, V int) (word int, bit uint64) {
	i := p*V + v
	return i >> 6, 1 << uint(i&63)
}

// advanced[p] has bit v set when input VC (p, v) advanced this cycle and
// must be skipped by the end-of-tick stall scan: one word per input
// port, like occ. Bits are set only on the obs-enabled path (noteAdvance,
// behind an r.obs != nil test) and cleared by the scan itself; the words
// exist only on a router built with an observer, so a lights-off
// router's block ends at va2req and this is empty.
func (r *Router) advanced() []uint64 {
	return r.words[wordRows*r.cfg.Ports+r.cfg.VCs+r.cfg.Ports*r.cfg.VCs*r.va2Words():]
}

// rcScan[p] is the round-robin pointer of input port p's single RC unit,
// which serves at most one VC per cycle.
func (r *Router) rcScan() []int16 { return row(r.portInts, rowRCScan, r.cfg.Ports) }

// saAdopted[p] is the VC input port p adopted as the bypass path's
// effective default winner after a transfer (Section V-C1), or -1.
// Modelling the transfer as adoption keeps the upstream router's per-VC
// credit and allocation bookkeeping exact: physically the flits and
// state move into the default winner's buffers in one cycle;
// architecturally the packet still occupies its original VC identity,
// which is what the upstream sees.
func (r *Router) saAdopted() []int16 { return row(r.portInts, rowSAAdopted, r.cfg.Ports) }

// saAdoptAge[p] counts cycles since port p's adoption, for rotation
// expiry: below the rotate period, so at most 32,767.
func (r *Router) saAdoptAge() []int16 { return row(r.portInts, rowSAAdoptAge, r.cfg.Ports) }

// The rows of the arbiter block, in block order: VA stage 1 and VA stage
// 2, one arbiter per (port, VC) each, then SA stage 2, one per port.
const (
	arbVA1 = iota
	arbVA2
	arbSA2
)

// va1[p*VCs+v] is input VC (p, v)'s VA stage-1 v:1 arbiter. Every input
// VC owns a set of po v:1 arbiters, one per output port, of which only
// the routed port's is exercised and a fault in any makes the set
// unusable (va1Faulty), so the set is modelled as its one arbiter.
func (r *Router) va1() []arbiter.RoundRobin {
	return row(r.arbs, arbVA1, r.cfg.Ports*r.cfg.VCs)
}

// va2[out*VCs+dvc] is downstream VC (out, dvc)'s (pi·v):1 VA stage-2
// arbiter.
func (r *Router) va2() []arbiter.RoundRobin {
	return row(r.arbs, arbVA2, r.cfg.Ports*r.cfg.VCs)
}

// sa2[out] is output port out's pi:1 SA stage-2 arbiter.
func (r *Router) sa2() []arbiter.RoundRobin { return r.arbs[arbSA2*r.cfg.Ports*r.cfg.VCs:] }

// New returns a router with the given id in topo, configured by cfg.
func New(id int, topo topology.Topology, cfg router.Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	P, V := cfg.Ports, cfg.VCs
	r := &Router{ID: id, cfg: cfg, topo: topo, xb: *crossbar.NewProtected(P)}
	r.vcs = vc.NewPorts(P, V, cfg.Depth)
	nw := wordRows*P + V + P*V*r.va2Words()
	if cfg.Obs != nil {
		nw += P // the stall scan's advance marks
	}
	r.words = make([]uint64, nw)
	cw := r.classWord()
	for v := range cw {
		cw[v] = spanWord(cfg.ClassRange(cfg.ClassOf(v)))
	}
	ints := make([]int16, P*V+intRows*P)
	r.credits, r.portInts = ints[:P*V:P*V], ints[P*V:]
	for i := range r.credits {
		r.credits[i] = int16(cfg.Depth)
	}
	adopted := r.saAdopted()
	for i := range adopted {
		adopted[i] = -1
	}
	va1, va2 := cfg.VA()
	sa1, sa2 := cfg.SA()
	r.arbs = make([]arbiter.RoundRobin, va1.Count+va2.Count+sa2.Count)
	a1, a2, s2 := r.va1(), r.va2(), r.sa2()
	for i := range a1 {
		a1[i], a2[i] = *arbiter.NewRoundRobin(va1.Inputs), *arbiter.NewRoundRobin(va2.Inputs)
	}
	r.sa1 = make([]arbiter.Bypassed, sa1.Count)
	for p := range r.sa1 {
		r.sa1[p], s2[p] = *arbiter.NewBypassed(sa1.Inputs, cfg.BypassRotatePeriod), *arbiter.NewRoundRobin(sa2.Inputs)
	}
	r.pathOK = r.pathWord()
	r.saWinners = make([]saWinner, P)
	// Pre-size the per-cycle latches to their flow-control bounds (one
	// flit per port per cycle; credits bounded by total VCs plus the
	// VC-free piggyback) so the steady-state tick never grows them.
	r.inFlits = make([]FlitIn, 0, P)
	r.inCredits = make([]CreditIn, 0, P*V+P)
	r.outFlits = make([]router.OutFlit, 0, P)
	r.outCredits = make([]router.Credit, 0, P*V+P)
	r.droppedPkts = make([]*flit.Packet, 0, P)
	r.obs = obs.BindRouter(cfg.Obs, id, P, V)
	return r, nil
}

// MustNew is New that panics on configuration errors, for tests and
// examples.
func MustNew(id int, topo topology.Topology, cfg router.Config) *Router {
	r, err := New(id, topo, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the router's configuration.
func (r *Router) Config() router.Config { return r.cfg }

// FaultTolerant reports whether this is the protected design.
func (r *Router) FaultTolerant() bool { return r.cfg.FaultTolerant }

// InputVC exposes input VC (p, v) for inspection by tests, the NI and the
// invariant checkers. The returned VC is read-only outside this package:
// the pipeline finds work through state derived from the G field — the
// occupancy mask occ and the stage words rcWait and vaWait — so a G
// written through this pointer never reaches the stages.
func (r *Router) InputVC(p topology.Port, v int) *vc.VC { return &r.portVCs(int(p))[v] }

// AcceptFlit delivers a flit to the input latch; it is buffered at the
// start of the next Tick. It panics on a port or VC the router lacks.
func (r *Router) AcceptFlit(f router.InFlit) {
	if uint(f.In) >= uint(r.cfg.Ports) || uint(f.VC) >= uint(r.cfg.VCs) {
		panic(vcError{r.ID, "flit into a missing VC", f.In, f.VC})
	}
	r.inFlits = append(r.inFlits, FlitIn{F: f.F, In: f.In, VC: int8(f.VC)})
}

// AcceptCredit delivers a credit to the input latch; it is applied at
// the start of the next Tick. It panics on a port or VC the router
// lacks.
func (r *Router) AcceptCredit(c CreditIn) {
	if uint(c.Out) >= uint(r.cfg.Ports) || uint(c.VC) >= uint(r.cfg.VCs) {
		panic(vcError{r.ID, "credit for a missing VC", c.Out, int(c.VC)})
	}
	r.inCredits = append(r.inCredits, c)
}

// Inputs returns the input latch: the flits and credits accepted since
// the last Tick, each in the order it arrived. Between network steps it
// holds the traffic on the wires into the router, which the network
// saves, restores (through AcceptFlit and AcceptCredit) and encodes with
// the node and counts in its credit-conservation check. The slices are
// the latch itself: read them only, and not past the next Accept or
// Tick.
func (r *Router) Inputs() ([]FlitIn, []CreditIn) { return r.inFlits, r.inCredits }

// DropInputCredit removes the credit accepted last from the input latch
// and reports whether there was one. It exists to sabotage the
// simulator on purpose (noc.Network.DropPendingCredit): a lost credit
// underfunds its VC for good.
func (r *Router) DropInputCredit() bool {
	if len(r.inCredits) == 0 {
		return false
	}
	r.inCredits = r.inCredits[:len(r.inCredits)-1]
	return true
}

// vcError is what the latch entry points and the credit accessors panic
// with. A value, not a formatted string, so that the functions raising
// it stay small enough to inline; the message is built when it is read.
type vcError struct {
	router int
	what   string
	port   topology.Port
	vc     int
}

func (e vcError) Error() string {
	return fmt.Sprintf("core: router %d %s on %v/vc%d", e.router, e.what, e.port, e.vc)
}

// SetRouteFn installs (or with nil, removes) a network-level fault-aware
// routing function that overrides the RC units' XY computation.
func (r *Router) SetRouteFn(fn RouteFn) { r.routeFn = fn }

// TakeDropped drains and returns the packets whose destination the
// routing function declared unreachable this cycle. Each such packet's
// buffered flits are discarded by the drain stage over the following
// cycles; the packet itself is reported exactly once, here.
//
// The returned slice aliases a buffer the router refills on its next
// Tick: consume it before then. (All three Take* drains share this
// contract; it is what keeps the steady-state network step free of
// allocations.)
func (r *Router) TakeDropped() []*flit.Packet {
	o := r.droppedPkts
	r.droppedPkts = r.droppedPkts[:0]
	return o
}

// TakeOutFlits drains and returns the flits that left the router this
// cycle. The returned slice is valid until the router's next Tick.
func (r *Router) TakeOutFlits() []router.OutFlit {
	o := r.outFlits
	r.outFlits = r.outFlits[:0]
	return o
}

// TakeOutCredits drains and returns the credits the router emitted this
// cycle. The returned slice is valid until the router's next Tick.
func (r *Router) TakeOutCredits() []router.Credit {
	o := r.outCredits
	r.outCredits = r.outCredits[:0]
	return o
}

// FreeOutVCs returns, for output port p and message class cls, how many
// downstream VCs are currently unallocated, for inspection by tests.
func (r *Router) FreeOutVCs(p topology.Port, cls int) int {
	return bits.OnesCount64(spanWord(r.cfg.ClassRange(cls)) &^ r.outBusy()[p])
}

// spanWord returns the word with bits [lo, hi) set: a range of VCs.
func spanWord(lo, hi int) uint64 {
	return (1<<uint(hi) - 1) &^ (1<<uint(lo) - 1)
}

// Tick advances the router one cycle. Stages run in reverse pipeline
// order (buffer-write, XB, SA, VA, RC) so that state written by an
// earlier stage this cycle is consumed by the next stage next cycle; the
// head-flit pipeline is therefore RC → VA → SA → XB, one stage per cycle,
// exactly the paper's Figure 2.
// A quiescent router returns right after the latches are applied.
func (r *Router) Tick(cy sim.Cycle) {
	r.acceptInputs()
	if r.Quiescent() {
		return
	}
	r.drainStage()
	r.xbStage(cy)
	r.saStage(cy)
	r.vaStage(cy)
	r.rcStage(cy)
	r.stallScan(cy)
}

// Quiescent reports whether no pipeline stage has anything to do this
// cycle: no VC holds a packet and no grant awaits the crossbar. A port in
// SA bypass mode is the exception that keeps an empty router ticking:
// its default winner rotates (and an adoption ages) on empty cycles too,
// see saStage. Every other piece of cross-cycle state — arbiter
// priorities, rcScan — moves only when a VC is served, so a quiescent
// router whose input latches are empty leaves a Tick unchanged.
func (r *Router) Quiescent() bool {
	return r.occupied == 0 && len(r.grants) == 0 && r.sa1Faults == 0
}

// String implements fmt.Stringer.
func (r *Router) String() string {
	kind := "baseline"
	if r.cfg.FaultTolerant {
		kind = "protected"
	}
	return fmt.Sprintf("core.Router{id=%d %s %dp/%dvc}", r.ID, kind, r.cfg.Ports, r.cfg.VCs)
}

// headReady reports whether v's front flit is a head flit, a precondition
// for entering the RC stage.
func headReady(v *vc.VC) bool {
	f := v.Front()
	return f != nil && f.Kind.IsHead()
}

// inVC returns input VC (p, v) from the slab.
func (r *Router) inVC(p, v int) *vc.VC { return &r.vcs[p*r.cfg.VCs+v] }

// portVCs returns input port p's VCs, a window of the slab.
func (r *Router) portVCs(p int) []vc.VC {
	V := r.cfg.VCs
	return r.vcs[p*V : (p+1)*V : (p+1)*V]
}

// Credits returns the router's current credit count for downstream VC
// (p, v) — exposed for the network-level credit-conservation checker.
func (r *Router) Credits(p topology.Port, v int) int { return int(r.credits[int(p)*r.cfg.VCs+v]) }

// creditReturn is the audited entry point for adding a downstream credit
// on (p, v): a credit arriving from the neighbour, or one refunded when a
// grant is cancelled. It bundles the increment with its overflow panic so
// every credit movement stays bounds-checked (see the creditflow
// analyzer in internal/analysis).
//
//noc:credit-accessor
func (r *Router) creditReturn(p topology.Port, v int) {
	c := &r.credits[int(p)*r.cfg.VCs+v]
	*c++
	if int(*c) > r.cfg.Depth {
		panic(vcError{r.ID, "credit overflow", p, v})
	}
}

// creditSpend is the audited entry point for reserving a downstream
// credit on (p, v) for a granted flit, with its underflow panic.
//
//noc:credit-accessor
func (r *Router) creditSpend(p topology.Port, v int) {
	c := &r.credits[int(p)*r.cfg.VCs+v]
	*c--
	if *c < 0 {
		panic(vcError{r.ID, "negative credit", p, v})
	}
}

// PendingGrants counts switch-allocation grants awaiting crossbar
// traversal whose flit will occupy downstream VC (p, v). The credit for
// such a flit is already reserved, so the network's credit-conservation
// checker must count it.
func (r *Router) PendingGrants(p topology.Port, v int) int {
	n := 0
	for _, g := range r.grants {
		if g.outPort == p && int(r.inVC(int(g.inPort), int(g.inVC)).OutVC) == v {
			n++
		}
	}
	return n
}

// vcOccupy records that input VC (p, v) left Idle for Routing.
func (r *Router) vcOccupy(p topology.Port, v int) {
	*r.word(rowOcc, int(p)) |= 1 << uint(v)
	r.occupied++
	*r.word(rowRCWait, int(p)) |= 1 << uint(v)
	r.rcPorts |= 1 << uint(p)
}

// vcRelease records that input VC (p, v) returned to Idle.
func (r *Router) vcRelease(p topology.Port, v int) {
	*r.word(rowOcc, int(p)) &^= 1 << uint(v)
	r.occupied--
}

// rcDone records that input VC (p, v) left Routing.
func (r *Router) rcDone(p, v int) {
	w := r.word(rowRCWait, p)
	if *w &^= 1 << uint(v); *w == 0 {
		r.rcPorts &^= 1 << uint(p)
	}
}

// vaDone records that input VC (p, v) left VCAlloc.
func (r *Router) vaDone(p, v int) {
	w := r.word(rowVAWait, p)
	if *w &^= 1 << uint(v); *w == 0 {
		r.vaPorts &^= 1 << uint(p)
	}
}

// portCount is one input port's occupancy state recounted from its VCs:
// its occ, rcWait and vaWait words and its number of Dropping VCs.
type portCount struct {
	occ, rc, va uint64
	dropping    int
}

// portOccupancy recounts input port p's occupancy state from the VCs
// themselves.
func (r *Router) portOccupancy(p int) (c portCount) {
	vcs := r.portVCs(p)
	for v := range vcs {
		bit := uint64(1) << uint(v)
		switch vcs[v].G {
		case vc.Idle:
			continue
		case vc.Routing:
			c.rc |= bit
		case vc.VCAlloc:
			c.va |= bit
		case vc.Dropping:
			c.dropping++
		}
		c.occ |= bit
	}
	return c
}

// portsOf returns the port mask of words: bit p set iff words[p] != 0.
func portsOf(words []uint64) uint64 {
	var m uint64
	for p, w := range words {
		if w != 0 {
			m |= 1 << uint(p)
		}
	}
	return m
}

// pathWord derives pathOK from the fault bits.
func (r *Router) pathWord() uint64 {
	var m uint64
	for out := 0; out < r.cfg.Ports; out++ {
		if r.primaryPathUsable(topology.Port(out)) {
			m |= 1 << uint(out)
		}
	}
	return m
}

// recount derives the occupancy state from the VCs and the SA stage-1
// arbiters: the three totals and, per port, the occ, rcWait and vaWait
// words, which it writes to the router when store is set and otherwise
// compares with it. stale is the first port whose maintained words
// disagreed, -1 when none did.
func (r *Router) recount(store bool) (occupied, dropping, sa1Faults, stale int) {
	stale = -1
	occ, rcWait, vaWait := r.occ(), r.rcWait(), r.vaWait()
	for p := range occ {
		c := r.portOccupancy(p)
		if stale < 0 && (c.occ != occ[p] || c.rc != rcWait[p] || c.va != vaWait[p]) {
			stale = p
		}
		if store {
			occ[p], rcWait[p], vaWait[p] = c.occ, c.rc, c.va
		}
		occupied += bits.OnesCount64(c.occ)
		dropping += c.dropping
		if r.sa1[p].Arb.Faulty() {
			sa1Faults++
		}
	}
	return occupied, dropping, sa1Faults, stale
}

// rebuildOccupancy recomputes the derived occupancy state — the totals,
// the occupancy and stage words, their port masks and the path word —
// from the VCs and the fault bits.
func (r *Router) rebuildOccupancy() {
	r.occupied, r.dropping, r.sa1Faults, _ = r.recount(true)
	r.rcPorts, r.vaPorts = portsOf(r.rcWait()), portsOf(r.vaWait())
	r.pathOK = r.pathWord()
}

// CheckOccupancy recounts the derived occupancy state from the VCs and
// arbiters and returns an error describing the first disagreement with
// what the pipeline maintains incrementally: the occupancy and stage
// words, the totals, the port masks and the path word; the busy words
// must mark no VC the port lacks. It must be called between Ticks, where
// the allocators' stage-2 request words must also be zero. It is the
// runtime half of the //noc:derived markers on those fields, run every
// cycle under the nocassert build tag (so it allocates nothing on the
// passing path).
func (r *Router) CheckOccupancy() error {
	occupied, dropping, sa1Faults, stale := r.recount(false)
	if stale >= 0 {
		c := r.portOccupancy(stale)
		return fmt.Errorf("port %v occ/rcWait/vaWait = %#x/%#x/%#x, VCs say %#x/%#x/%#x", topology.Port(stale),
			r.occ()[stale], r.rcWait()[stale], r.vaWait()[stale], c.occ, c.rc, c.va)
	}
	if occupied != r.occupied || dropping != r.dropping || sa1Faults != r.sa1Faults {
		return fmt.Errorf("occupied/dropping/sa1Faults = %d/%d/%d, VCs and arbiters say %d/%d/%d",
			r.occupied, r.dropping, r.sa1Faults, occupied, dropping, sa1Faults)
	}
	if rc, va := portsOf(r.rcWait()), portsOf(r.vaWait()); rc != r.rcPorts || va != r.vaPorts {
		return fmt.Errorf("rcPorts/vaPorts = %#x/%#x, stage words say %#x/%#x", r.rcPorts, r.vaPorts, rc, va)
	}
	if m := r.pathWord(); m != r.pathOK {
		return fmt.Errorf("pathOK = %#x, fault bits say %#x", r.pathOK, m)
	}
	for out, w := range r.outBusy() {
		if extra := w &^ spanWord(0, r.cfg.VCs); extra != 0 {
			return fmt.Errorf("output %v busy word %#x marks downstream VCs %#x the port lacks", topology.Port(out), w, extra)
		}
	}
	V, W := r.cfg.VCs, r.va2Words()
	for i, w := range r.va2req() {
		if w != 0 {
			// Set i/W is downstream VC (out, dvc); bit b of its word i%W
			// is input VC (p, v) with p*VCs+v = (i%W)*64+b.
			d, in := i/W, i%W*64+bits.TrailingZeros64(w)
			return fmt.Errorf("VA stage-2 request set of output %v vc%d holds a stale request of input %v vc%d (word %d of the set: %#x)",
				topology.Port(d/V), d%V, topology.Port(in/V), in%V, i%W, w)
		}
	}
	va2any, sa2req := r.va2any(), r.sa2req()
	for out := range va2any {
		if va2any[out] != 0 || sa2req[out] != 0 {
			return fmt.Errorf("output %v holds stale stage-2 request marks: VA %#x, SA %#x", topology.Port(out), va2any[out], sa2req[out])
		}
	}
	return nil
}

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

// inFlit is a latched input flit: what router.InFlit carries, with the
// VC a byte (router.Config caps ports and VCs at 64). A latch holds a
// cycle's worth of them per router, so their width is most of what the
// latches cost; latched credits are CreditIn, narrow already.
type inFlit struct {
	f      *flit.Flit
	in, vc uint8
}

// Router is a P-port, V-VC, 4-stage pipelined wormhole router with
// credit-based flow control. It implements both the baseline and the
// paper's fault-tolerant design, selected by Config.FaultTolerant.
//
// A router is one block: the fields a quiescent tick reads (the latches,
// the grant list, the occupancy totals) come first so an idle router
// costs the few lines they share, and the headers an active tick starts
// from follow them. Its VCs are held by value in one slab with their
// buffers in one arena (vc.NewPorts), the per-(port, VC) output-side
// bookkeeping is flat, indexed p*VCs+v like the slab, and the fault words,
// arbiters and crossbar are fields of the router itself, so a tick reaches
// any VC, credit or arbiter through one slice header instead of a chain of
// pointers.
type Router struct {
	// The I/O latches are empty at the step boundary where snapshots are
	// taken; RestoreState clears them rather than restoring contents.
	inFlits    []inFlit         //noc:derived I/O latch, empty at the step boundary
	inCredits  []CreditIn       //noc:derived I/O latch, empty at the step boundary
	outFlits   []router.OutFlit //noc:derived I/O latch, empty at the step boundary
	outCredits []router.Credit  //noc:derived I/O latch, empty at the step boundary

	// occupied counts the set bits of occ.
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

	// Output-side bookkeeping: this router as upstream of each output
	// port's downstream buffers. credits holds downstream VC v of output p
	// at p*VCs+v, 16-bit (router.Config caps the depth at 32,767);
	// outBusy[p] has bit v set while that VC is allocated (VA stage 2
	// sets it, its VC-free credit clears it).
	credits []int16
	outBusy []uint64

	// Occupancy state, derived from the VCs' G fields and the SA stage-1
	// fault bits so the stages visit only VCs that hold a packet and Tick
	// can return early on a quiescent router. It is maintained where a VC
	// leaves or re-enters Idle (vcOccupy, vcRelease), where one starts
	// Dropping (rcStage) and in SetSA1Fault; CheckOccupancy recomputes it.
	//
	// occ[p] has bit v set iff VC (p, v) is not vc.Idle (router.Config
	// caps VCs at 64 so a port fits one word). occupied and sa1Faults sit
	// at the top of the struct with the latches.
	//noc:derived recomputed from the VC G states by RestoreState
	occ []uint64
	// dropping counts the VCs in vc.Dropping.
	//noc:derived recomputed from the VC G states by RestoreState
	dropping int

	// Stage words, derived from the G fields like occ so that RC and VA
	// stage 1 visit only the VCs in their own state and SA stage 1 skips
	// them: rcWait[p] has bit v set iff VC (p, v) is in vc.Routing,
	// vaWait[p] iff it is in vc.VCAlloc, and bit p of rcPorts (vaPorts) is
	// set iff rcWait[p] (vaWait[p]) is non-zero. They move at the G
	// transitions into and out of those two states: Idle→Routing in
	// acceptInputs, Routing→VCAlloc and Routing→Dropping in rcStage,
	// VCAlloc→Active in VA stage 2.
	//noc:derived recomputed from the VC G states by RestoreState
	rcWait []uint64
	//noc:derived recomputed from the VC G states by RestoreState
	vaWait []uint64
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
	// classWord[v] has the downstream VCs of input VC v's message class
	// set: what VA stage 1 requests from when routing pinned no VC layer.
	//noc:derived immutable configuration, fixed at construction
	classWord []uint64

	// ID is the router's node id in the mesh.
	//noc:derived immutable identity, fixed at construction
	ID int
	//noc:derived immutable configuration, fixed at construction
	topo topology.Topology

	// The router's parts, in its own blocks. Bit p of rcFaulty[c] marks RC
	// copy c of input port p faulty: copy 0 is the port's RC unit, copy 1
	// the protected router's duplicate, switched in when the primary is
	// faulty (Section V-A). Bit v of va1Faulty[p] marks input VC (p, v)'s
	// VA stage-1 arbiter set faulty.
	rcFaulty  [2]uint64
	va1Faulty []uint64
	// The allocators' arbiters (Figure 3a/3b), by value in one slab. VA
	// stage 1: every input VC owns a set of po v:1 arbiters, one per output
	// port, of which only the routed port's is exercised and a fault in any
	// makes the set unusable, so va1[p*VCs+v] is input VC (p, v)'s one v:1
	// arbiter. VA stage 2: va2[out*VCs+dvc] is downstream VC (out, dvc)'s
	// (pi·v):1 arbiter. SA: sa1[p] is input port p's v:1 arbiter with the
	// protected router's bypass path, sa2[out] output port out's pi:1 one.
	va1, va2, sa2 []arbiter.RoundRobin
	sa1           []arbiter.Bypassed
	// xb is the crossbar, the protected one in both designs: the baseline
	// only ever traverses the primary paths.
	xb crossbar.Protected

	// rcScan is the per-port round-robin pointer for the (single) RC unit
	// serving at most one VC per cycle. It and the two adoption rows below
	// are 16-bit, like credits, and share its block.
	rcScan []int16

	// saAdopted tracks, per input port, the VC adopted as the bypass
	// path's effective default winner after a transfer (Section V-C1), or
	// -1. Modelling the transfer as adoption keeps the upstream router's
	// per-VC credit and allocation bookkeeping exact: physically the
	// flits and state move into the default winner's buffers in one
	// cycle; architecturally the packet still occupies its original VC
	// identity, which is what the upstream sees.
	saAdopted []int16
	// saAdoptAge counts cycles since the adoption, for rotation expiry:
	// below the rotate period, so at most 32,767.
	saAdoptAge []int16

	// va2req collects stage-2 VA requests as request words, one per input
	// port: the Ports words from (outPort*VCs+dvc)*Ports on are the
	// request set of downstream VC (outPort, dvc), bit v of word p being
	// input VC (p, v). A word per input port, like occ, is what lets the
	// (Ports·VCs)-input arbiter take any Ports·VCs. va2any[outPort] has
	// bit dvc set while (outPort, dvc) holds a request. Stage 1 sets bits
	// and stage 2 clears them as it consumes them, so both are zero
	// outside vaStage.
	//noc:derived per-cycle scratch, zero outside vaStage
	va2req []uint64
	//noc:derived per-cycle scratch, zero outside vaStage
	va2any []uint64
	// saWinners is the switch allocator's per-port scratch buffer: stage
	// 1 writes the entries of the ports that won and stage 2 reads only
	// those, so it is never reset. sa2req[reqPort] is stage 2's request
	// word, bit p set when input port p's winner requests that output;
	// stage 2 clears the words it consumes, so all are zero outside
	// saStage.
	//noc:derived per-cycle scratch, written before it is read every Tick
	saWinners []saWinner
	//noc:derived per-cycle scratch, zero outside saStage
	sa2req []uint64

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
	// default); every instrumentation site guards on it with one nil
	// check so the disabled hot path stays allocation-free.
	//noc:derived immutable wiring, bound at network construction; observational only
	obs *obs.RouterObs

	// advanced[p] has bit v set when input VC (p, v) advanced this cycle
	// and must be skipped by the end-of-tick stall scan: one word per
	// input port, like occ. Bits are set only on the obs-enabled path
	// (inside existing nil-guarded blocks) and cleared by the scan itself;
	// the words are allocated only when obs is bound, so a lights-off
	// router carries a nil slice.
	//noc:derived per-cycle scratch, cleared by the end-of-tick stall scan; observational only
	advanced []uint64
}

// New returns a router with the given id in topo, configured by cfg.
func New(id int, topo topology.Topology, cfg router.Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	P, V := cfg.Ports, cfg.VCs
	r := &Router{ID: id, cfg: cfg, topo: topo, xb: *crossbar.NewProtected(P)}
	r.vcs = vc.NewPorts(P, V, cfg.Depth)
	// The busy, VA stage-1 fault and class words, and the stall scan's
	// advance marks one per port when observability is bound, share one
	// small allocation: carved from the words block below they would push
	// it past its 1 KiB size class at the paper's 5 ports and 4 VCs.
	nb := 2*P + V
	if cfg.Obs != nil {
		nb += P
	}
	busy := make([]uint64, nb)
	r.outBusy, r.va1Faulty, busy = busy[:P:P], busy[P:2*P:2*P], busy[2*P:]
	r.classWord, busy = busy[:V:V], busy[V:]
	for v := range r.classWord {
		r.classWord[v] = spanWord(cfg.ClassRange(cfg.ClassOf(v)))
	}
	// The credit counts, then rcScan, saAdopted and saAdoptAge one per port.
	ints := make([]int16, P*V+3*P)
	r.credits, ints = ints[:P*V:P*V], ints[P*V:]
	for i := range r.credits {
		r.credits[i] = int16(cfg.Depth)
	}
	r.rcScan, r.saAdopted, r.saAdoptAge = ints[:P:P], ints[P:2*P:2*P], ints[2*P:]
	for i := range r.saAdopted {
		r.saAdopted[i] = -1
	}
	va1, va2 := cfg.VA()
	sa1, sa2 := cfg.SA()
	arbs := make([]arbiter.RoundRobin, va1.Count+va2.Count+sa2.Count)
	r.va1, arbs = arbs[:va1.Count:va1.Count], arbs[va1.Count:]
	r.va2, r.sa2 = arbs[:va2.Count:va2.Count], arbs[va2.Count:]
	for i := range r.va1 {
		r.va1[i], r.va2[i] = *arbiter.NewRoundRobin(va1.Inputs), *arbiter.NewRoundRobin(va2.Inputs)
	}
	r.sa1 = make([]arbiter.Bypassed, sa1.Count)
	for p := range r.sa1 {
		r.sa1[p], r.sa2[p] = *arbiter.NewBypassed(sa1.Inputs, cfg.BypassRotatePeriod), *arbiter.NewRoundRobin(sa2.Inputs)
	}
	r.pathOK = r.pathWord()
	// The mask and request words: occ, rcWait, vaWait, va2any and sa2req
	// one per port, and va2req P per downstream VC.
	words := make([]uint64, (5+P*V)*P)
	r.occ, words = words[:P:P], words[P:]
	r.rcWait, words = words[:P:P], words[P:]
	r.vaWait, words = words[:P:P], words[P:]
	r.va2any, words = words[:P:P], words[P:]
	r.sa2req, words = words[:P:P], words[P:]
	r.va2req = words
	r.saWinners = make([]saWinner, P)
	// Pre-size the per-cycle staging latches to their flow-control bounds
	// (one flit per port per cycle; credits bounded by total VCs plus the
	// VC-free piggyback) so the steady-state tick never grows them.
	r.inFlits = make([]inFlit, 0, P)
	r.inCredits = make([]CreditIn, 0, P*V+P)
	r.outFlits = make([]router.OutFlit, 0, P)
	r.outCredits = make([]router.Credit, 0, P*V+P)
	r.droppedPkts = make([]*flit.Packet, 0, P)
	if r.obs = obs.BindRouter(cfg.Obs, id, P, V); r.obs != nil {
		r.advanced = busy
	}
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

// AcceptFlit delivers a flit to input port latch; it is buffered at the
// start of the next Tick. It panics on a port or VC the router lacks.
func (r *Router) AcceptFlit(f router.InFlit) {
	if uint(f.In) >= uint(r.cfg.Ports) || uint(f.VC) >= uint(r.cfg.VCs) {
		panic(vcError{r.ID, "flit into a missing VC", f.In, f.VC})
	}
	r.inFlits = append(r.inFlits, inFlit{f: f.F, in: uint8(f.In), vc: uint8(f.VC)})
}

// AcceptCredit delivers a credit to the output-side latch. It panics on a
// port or VC the router lacks.
func (r *Router) AcceptCredit(c CreditIn) {
	if uint(c.Out) >= uint(r.cfg.Ports) || uint(c.VC) >= uint(r.cfg.VCs) {
		panic(vcError{r.ID, "credit for a missing VC", c.Out, int(c.VC)})
	}
	r.inCredits = append(r.inCredits, c)
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
	return bits.OnesCount64(spanWord(r.cfg.ClassRange(cls)) &^ r.outBusy[p])
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
	r.occ[p] |= 1 << uint(v)
	r.occupied++
	r.rcWait[p] |= 1 << uint(v)
	r.rcPorts |= 1 << uint(p)
}

// vcRelease records that input VC (p, v) returned to Idle.
func (r *Router) vcRelease(p topology.Port, v int) {
	r.occ[p] &^= 1 << uint(v)
	r.occupied--
}

// rcDone records that input VC (p, v) left Routing.
func (r *Router) rcDone(p, v int) {
	if r.rcWait[p] &^= 1 << uint(v); r.rcWait[p] == 0 {
		r.rcPorts &^= 1 << uint(p)
	}
}

// vaDone records that input VC (p, v) left VCAlloc.
func (r *Router) vaDone(p, v int) {
	if r.vaWait[p] &^= 1 << uint(v); r.vaWait[p] == 0 {
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
	for p := range r.occ {
		c := r.portOccupancy(p)
		if stale < 0 && (c.occ != r.occ[p] || c.rc != r.rcWait[p] || c.va != r.vaWait[p]) {
			stale = p
		}
		if store {
			r.occ[p], r.rcWait[p], r.vaWait[p] = c.occ, c.rc, c.va
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
	r.rcPorts, r.vaPorts = portsOf(r.rcWait), portsOf(r.vaWait)
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
			r.occ[stale], r.rcWait[stale], r.vaWait[stale], c.occ, c.rc, c.va)
	}
	if occupied != r.occupied || dropping != r.dropping || sa1Faults != r.sa1Faults {
		return fmt.Errorf("occupied/dropping/sa1Faults = %d/%d/%d, VCs and arbiters say %d/%d/%d",
			r.occupied, r.dropping, r.sa1Faults, occupied, dropping, sa1Faults)
	}
	if rc, va := portsOf(r.rcWait), portsOf(r.vaWait); rc != r.rcPorts || va != r.vaPorts {
		return fmt.Errorf("rcPorts/vaPorts = %#x/%#x, stage words say %#x/%#x", r.rcPorts, r.vaPorts, rc, va)
	}
	if m := r.pathWord(); m != r.pathOK {
		return fmt.Errorf("pathOK = %#x, fault bits say %#x", r.pathOK, m)
	}
	for out, w := range r.outBusy {
		if extra := w &^ spanWord(0, r.cfg.VCs); extra != 0 {
			return fmt.Errorf("output %v busy word %#x marks downstream VCs %#x the port lacks", topology.Port(out), w, extra)
		}
	}
	for i, w := range r.va2req {
		if w != 0 {
			dvcFlat := i / r.cfg.Ports
			return fmt.Errorf("VA stage-2 request word (%v, vc%d) holds stale requests %#x of input port %v",
				topology.Port(dvcFlat/r.cfg.VCs), dvcFlat%r.cfg.VCs, w, topology.Port(i%r.cfg.Ports))
		}
	}
	for out := range r.va2any {
		if r.va2any[out] != 0 || r.sa2req[out] != 0 {
			return fmt.Errorf("output %v holds stale stage-2 request marks: VA %#x, SA %#x", topology.Port(out), r.va2any[out], r.sa2req[out])
		}
	}
	return nil
}

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
type CreditIn struct {
	// Out is the output port of this router the credit applies to.
	Out topology.Port
	// VC is the downstream VC index.
	VC int
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
// the following cycle.
type grant struct {
	inPort    topology.Port
	inVC      int
	outPort   topology.Port // actual destination output port
	secondary bool          // traverse via the protected crossbar's secondary path
}

// saWinner is one input port's stage-1 switch-allocation winner, held in
// the router's reusable per-port scratch buffer (saWinners) between the
// two allocator stages.
type saWinner struct {
	vcIdx     int
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

// inFlit and creditIn are the router's latched inputs: what router.InFlit
// and CreditIn carry, narrow (router.Config caps ports and VCs at 64). A
// latch holds a cycle's worth of them per router, so their width is most
// of what the latches cost.
type inFlit struct {
	f      *flit.Flit
	in, vc uint8
}

type creditIn struct {
	out, vc uint8
	free    bool
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
// bookkeeping is flat, indexed p*VCs+v like the slab, and the RC units
// and allocators are values, so a tick reaches any VC, credit or arbiter
// through one slice header instead of a chain of pointers.
type Router struct {
	// The I/O latches are empty at the step boundary where snapshots are
	// taken; RestoreState clears them rather than restoring contents.
	inFlits    []inFlit         //noc:derived I/O latch, empty at the step boundary
	inCredits  []creditIn       //noc:derived I/O latch, empty at the step boundary
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

	// vcs is the slab of input VCs, VC v of port p at p*VCs+v; the pipeline
	// stages index it directly. in (below) holds the ports by value, their
	// VCs pointing into the slab — the view InputVC and FindLender use.
	vcs []vc.VC

	// Output-side bookkeeping: this router as upstream of each output
	// port's downstream buffers, downstream VC v of output p at p*VCs+v.
	credits   []int
	outVCBusy []bool

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

	// ID is the router's node id in the mesh.
	//noc:derived immutable identity, fixed at construction
	ID int
	//noc:derived immutable configuration, fixed at construction
	topo topology.Topology

	//noc:derived immutable wiring: a view of vcs, fixed at construction
	in []vc.InputPort
	rc []router.RCUnit
	va router.VAlloc
	sa router.SAlloc

	xbBase *crossbar.Baseline
	xbProt *crossbar.Protected

	// rcScan is the per-port round-robin pointer for the (single) RC unit
	// serving at most one VC per cycle.
	rcScan []int

	// saAdopted tracks, per input port, the VC adopted as the bypass
	// path's effective default winner after a transfer (Section V-C1), or
	// -1. Modelling the transfer as adoption keeps the upstream router's
	// per-VC credit and allocation bookkeeping exact: physically the
	// flits and state move into the default winner's buffers in one
	// cycle; architecturally the packet still occupies its original VC
	// identity, which is what the upstream sees.
	saAdopted []int
	// saAdoptAge counts cycles since the adoption, for rotation expiry.
	saAdoptAge []int

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
	r := &Router{ID: id, cfg: cfg, topo: topo}
	r.vcs, r.in = vc.NewPorts(P, V, cfg.Depth)
	r.rc = make([]router.RCUnit, P)
	for p := range r.rc {
		r.rc[p] = *router.NewRCUnit(topo, cfg.FaultTolerant)
	}
	r.outVCBusy = make([]bool, P*V)
	r.credits = make([]int, P*V)
	for i := range r.credits {
		r.credits[i] = cfg.Depth
	}
	ints := make([]int, 3*P)
	r.rcScan, r.saAdopted, r.saAdoptAge = ints[:P:P], ints[P:2*P:2*P], ints[2*P:]
	for i := range r.saAdopted {
		r.saAdopted[i] = -1
	}
	r.va = *router.NewVAlloc(cfg)
	r.sa = *router.NewSAlloc(cfg)
	if cfg.FaultTolerant {
		r.xbProt = crossbar.NewProtected(P)
	} else {
		r.xbBase = crossbar.NewBaseline(P)
	}
	// The mask and request words: occ, va2any and sa2req one per port,
	// va2req P per downstream VC, and the stall scan's advanced marks one
	// per port when observability is bound.
	nw := (3 + P*V) * P
	if cfg.Obs != nil {
		nw += P
	}
	words := make([]uint64, nw)
	r.occ, words = words[:P:P], words[P:]
	r.va2any, words = words[:P:P], words[P:]
	r.sa2req, words = words[:P:P], words[P:]
	r.va2req, words = words[:P*V*P:P*V*P], words[P*V*P:]
	r.saWinners = make([]saWinner, P)
	// Pre-size the per-cycle staging latches to their flow-control bounds
	// (one flit per port per cycle; credits bounded by total VCs plus the
	// VC-free piggyback) so the steady-state tick never grows them.
	r.inFlits = make([]inFlit, 0, P)
	r.inCredits = make([]creditIn, 0, P*V+P)
	r.outFlits = make([]router.OutFlit, 0, P)
	r.outCredits = make([]router.Credit, 0, P*V+P)
	r.droppedPkts = make([]*flit.Packet, 0, P)
	if r.obs = obs.BindRouter(cfg.Obs, id, P, V); r.obs != nil {
		r.advanced = words
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
// the pipeline finds work through occupancy state derived from the G
// field, so a G written through this pointer never reaches the stages.
func (r *Router) InputVC(p topology.Port, v int) *vc.VC { return r.in[p].VCs[v] }

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
		panic(vcError{r.ID, "credit for a missing VC", c.Out, c.VC})
	}
	r.inCredits = append(r.inCredits, creditIn{out: uint8(c.Out), vc: uint8(c.VC), free: c.VCFree})
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
// downstream VCs are currently unallocated — used by the local NI to
// decide whether a new packet can be injected.
func (r *Router) FreeOutVCs(p topology.Port, cls int) int {
	lo, hi := r.cfg.ClassRange(cls)
	busy := r.outVCBusy[int(p)*r.cfg.VCs:]
	n := 0
	for v := lo; v < hi; v++ {
		if !busy[v] {
			n++
		}
	}
	return n
}

// Tick advances the router one cycle. Stages run in reverse pipeline
// order (buffer-write, XB, SA, VA, RC) so that state written by an
// earlier stage this cycle is consumed by the next stage next cycle; the
// head-flit pipeline is therefore RC → VA → SA → XB, one stage per cycle,
// exactly the paper's Figure 2.
// A quiescent router returns right after the latches are applied.
func (r *Router) Tick(cy sim.Cycle) {
	r.acceptInputs()
	if r.quiescent() {
		return
	}
	r.drainStage()
	r.xbStage(cy)
	r.saStage(cy)
	r.vaStage(cy)
	r.rcStage(cy)
	r.stallScan(cy)
}

// quiescent reports whether no pipeline stage has anything to do this
// cycle: no VC holds a packet and no grant awaits the crossbar. A port in
// SA bypass mode is the exception that keeps an empty router ticking:
// its default winner rotates (and an adoption ages) on empty cycles too,
// see saStage. Every other piece of cross-cycle state — arbiter
// priorities, rcScan — moves only when a VC is served.
func (r *Router) quiescent() bool {
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
func (r *Router) Credits(p topology.Port, v int) int { return r.credits[int(p)*r.cfg.VCs+v] }

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
	if *c > r.cfg.Depth {
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
		if g.outPort == p && r.inVC(int(g.inPort), g.inVC).OutVC == v {
			n++
		}
	}
	return n
}

// vcOccupy records that input VC (p, v) left Idle.
func (r *Router) vcOccupy(p topology.Port, v int) {
	r.occ[p] |= 1 << uint(v)
	r.occupied++
}

// vcRelease records that input VC (p, v) returned to Idle.
func (r *Router) vcRelease(p topology.Port, v int) {
	r.occ[p] &^= 1 << uint(v)
	r.occupied--
}

// portOccupancy recounts input port p's occupancy mask and its number of
// Dropping VCs from the VCs themselves.
func (r *Router) portOccupancy(p int) (mask uint64, dropping int) {
	vcs := r.portVCs(p)
	for v := range vcs {
		q := &vcs[v]
		if q.G == vc.Idle {
			continue
		}
		mask |= 1 << uint(v)
		if q.G == vc.Dropping {
			dropping++
		}
	}
	return mask, dropping
}

// recount derives the occupancy state from the VCs and the SA stage-1
// arbiters: the three totals and, per port, the mask, which it writes to
// r.occ when store is set and otherwise compares with it. stale is the
// first port whose maintained mask disagreed, -1 when none did.
func (r *Router) recount(store bool) (occupied, dropping, sa1Faults, stale int) {
	stale = -1
	for p := range r.occ {
		m, d := r.portOccupancy(p)
		if m != r.occ[p] && stale < 0 {
			stale = p
		}
		if store {
			r.occ[p] = m
		}
		occupied += bits.OnesCount64(m)
		dropping += d
		if r.sa.Stage1(p).Arb.Faulty() {
			sa1Faults++
		}
	}
	return occupied, dropping, sa1Faults, stale
}

// rebuildOccupancy recomputes the derived occupancy state from the VCs
// and the SA stage-1 arbiters.
func (r *Router) rebuildOccupancy() {
	r.occupied, r.dropping, r.sa1Faults, _ = r.recount(true)
}

// CheckOccupancy recounts the derived occupancy state from the VCs and
// arbiters and returns an error describing the first disagreement with
// what the pipeline maintains incrementally. It must be called between
// Ticks, where the allocators' stage-2 request words must also be zero.
// It is the runtime half of the //noc:derived markers on those fields,
// run every cycle under the nocassert build tag (so it allocates nothing
// on the passing path).
func (r *Router) CheckOccupancy() error {
	occupied, dropping, sa1Faults, stale := r.recount(false)
	if stale >= 0 {
		m, _ := r.portOccupancy(stale)
		return fmt.Errorf("port %v occupancy mask %#x, VCs say %#x", topology.Port(stale), r.occ[stale], m)
	}
	if occupied != r.occupied || dropping != r.dropping || sa1Faults != r.sa1Faults {
		return fmt.Errorf("occupied/dropping/sa1Faults = %d/%d/%d, VCs and arbiters say %d/%d/%d",
			r.occupied, r.dropping, r.sa1Faults, occupied, dropping, sa1Faults)
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

package core

import (
	"fmt"
	"math/bits"

	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// acceptInputs applies the latched credits and buffers the latched flits.
func (r *Router) acceptInputs() {
	if len(r.inCredits) == 0 && len(r.inFlits) == 0 {
		return // an idle tick reads nothing past the struct's first lines
	}
	V := r.cfg.VCs
	busy := r.outBusy()
	for _, c := range r.inCredits {
		r.creditReturn(c.Out, int(c.VC))
		if c.VCFree {
			busy[c.Out] &^= 1 << uint(c.VC)
		}
	}
	r.inCredits = r.inCredits[:0]

	for _, inf := range r.inFlits {
		p, v := int(inf.In), int(inf.VC)
		q := &r.vcs[p*V+v]
		if inf.F.Kind.IsHead() {
			if q.G != vc.Idle {
				panic(fmt.Sprintf("core: router %d head flit into busy VC %v/%d (G=%v)", r.ID, topology.Port(p), v, q.G))
			}
			q.G = vc.Routing
			r.vcOccupy(topology.Port(p), v)
		}
		q.Push(inf.F)
	}
	r.inFlits = r.inFlits[:0]
}

// rcStage performs routing computation for at most one head flit per input
// port (each port has a single RC unit). In the protected router the
// duplicate unit covers a faulty primary, and the SP/FSP fields are set
// when the computed output port's regular path is unusable (Section V-D).
// It visits only the ports and VCs in vc.Routing (rcPorts, rcWait).
func (r *Router) rcStage(cy sim.Cycle) {
	if r.rcPorts == 0 {
		return
	}
	rcWait, rcScan := r.rcWait(), r.rcScan()
	for ports := r.rcPorts; ports != 0; ports &= ports - 1 {
		p := bits.TrailingZeros64(ports)
		m := rcWait[p]
		vcs := r.portVCs(p)
		// Visit the routing VCs from rcScan[p] upward, then the ones
		// below it: the order (rcScan[p]+i) mod VCs takes them in.
		below := m & (1<<uint(rcScan[p]) - 1)
	scan:
		for _, part := range [2]uint64{m &^ below, below} {
			for ; part != 0; part &= part - 1 {
				idx := bits.TrailingZeros64(part)
				q := &vcs[idx]
				if !headReady(q) {
					continue
				}
				out, ok, unreachable := r.computeRoute(cy, p, q)
				if unreachable {
					// Network faults cut every remaining path to the
					// destination: discard the packet. The drain stage frees
					// the buffered flits one per cycle, returning credits
					// upstream, until the tail releases the VC.
					q.G = vc.Dropping
					r.rcDone(p, idx)
					r.dropping++
					r.droppedPkts = append(r.droppedPkts, q.Front().Pkt)
					rcScan[p] = r.vcAfter(idx)
					break scan
				}
				if !ok {
					// No fault-free RC copy: the packet is stuck. The router
					// is no longer Functional(); leave the VC in Routing.
					break scan
				}
				q.R = out
				q.FSP = false
				if r.cfg.FaultTolerant && !r.primaryOK(out) {
					if r.secondaryPathUsable(out) {
						q.FSP = true
						q.SP = topology.Port(r.xb.SecondaryOf(int(out)))
					}
					// If neither path works the packet waits; Functional()
					// reports the router failed.
				}
				q.G = vc.VCAlloc
				r.rcDone(p, idx)
				*r.word(rowVAWait, p) |= 1 << uint(idx)
				r.vaPorts |= 1 << uint(p)
				r.obs.RCCompute(cy, p, idx, int(out), r.rcFaulty[0]>>uint(p)&1 != 0)
				if r.obs != nil {
					r.noteAdvance(p, idx)
				}
				rcScan[p] = r.vcAfter(idx)
				break scan // one RC per port per cycle
			}
		}
	}
}

// vcAfter returns the VC index that follows v in round-robin order.
func (r *Router) vcAfter(v int) int16 {
	if v+1 == r.cfg.VCs {
		return 0
	}
	return int16(v + 1)
}

// computeRoute runs the port's RC unit; ok is false when no fault-free
// copy remains. rcStage counts the computation, and the duplicate unit's
// use, only once it yields a route. With a fault-aware route function
// installed the unit computes that function instead of XY (unreachable=true
// when no path to the destination survives); without one the behavior is
// exactly the baseline XY lookup.
func (r *Router) computeRoute(cy sim.Cycle, p int, q *vc.VC) (out topology.Port, ok, unreachable bool) {
	if !r.rcUsable(p) {
		return topology.Local, false, false
	}
	dst := q.Front().Pkt.Dst
	if fn := r.routeFn; fn != nil {
		//nocvet:ignore hotpathalloc RouteFn targets are pre-built table lookups (torusRoute, routeTable), pinned allocation-free by the zero-alloc suite
		fout, lo, hi, fok := fn(r.ID, topology.Port(p), int(q.Index), dst)
		if !fok {
			return topology.Local, false, true
		}
		q.DvcLo, q.DvcHi = int8(lo), int8(hi)
		//nocvet:ignore hotpathalloc topology Route implementations are pure coordinate arithmetic
		if r.ID != dst && fout != r.topo.Route(r.ID, dst) {
			q.Detour = true
			r.Counters.Reroutes++
			r.obs.Reroute(cy, p, int(q.Index), int(fout))
		}
		return fout, true, false
	}
	//nocvet:ignore hotpathalloc topology Route implementations are pure coordinate arithmetic
	return r.topo.Route(r.ID, dst), true, false
}

// drainStage discards one buffered flit per Dropping VC per cycle,
// returning the credit (and on the tail, the VC-free signal) upstream so
// the upstream router's flow control unwinds exactly as if the flits had
// been forwarded.
func (r *Router) drainStage() {
	if r.dropping == 0 {
		return
	}
	for p, m := range r.occ() {
		vcs := r.portVCs(p)
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			q := &vcs[v]
			if q.G != vc.Dropping || q.Empty() {
				continue
			}
			f := q.Pop()
			r.outCredits = append(r.outCredits, router.Credit{
				In:     topology.Port(p),
				VC:     q.Index,
				VCFree: f.Kind.IsTail(),
			})
			if f.Kind.IsTail() {
				q.ResetPacketState()
				r.vcRelease(topology.Port(p), v)
				r.dropping--
			}
		}
	}
}

// primaryPathUsable reports whether output port out's regular path — its
// SA stage-2 arbiter plus its primary crossbar multiplexer — is fault
// free. It probes the fault bits; the stages read its cached form,
// primaryOK.
func (r *Router) primaryPathUsable(out topology.Port) bool {
	return !r.sa2()[out].Faulty() && r.xb.PrimaryUsable(int(out))
}

// primaryOK is primaryPathUsable read from the path word.
func (r *Router) primaryOK(out topology.Port) bool { return r.pathOK>>uint(out)&1 != 0 }

// secondaryPathUsable reports whether output out can be reached through
// the protected crossbar's secondary path: the neighbouring mux, the
// demux/Pk leg and the neighbouring port's SA stage-2 arbiter must all be
// fault free. Only meaningful for the protected router.
func (r *Router) secondaryPathUsable(out topology.Port) bool {
	if !r.cfg.FaultTolerant {
		return false
	}
	return r.xb.SecondaryUsable(int(out)) && !r.sa2()[r.xb.SecondaryOf(int(out))].Faulty()
}

// freeDownVCs returns the request word of input VC v (q): the downstream
// VCs of its routed output it may allocate — its class's, or the layer
// fault-aware routing pinned it to — less the allocated ones. VA stage 1
// arbitrates over it and the stall scan calls a VC with none
// credit-starved.
func (r *Router) freeDownVCs(q *vc.VC, v int) uint64 {
	want := r.classWord()[v]
	if q.DvcLo < q.DvcHi {
		want = spanWord(int(q.DvcLo), int(q.DvcHi))
	}
	return want &^ r.outBusy()[q.R]
}

// vaStage runs the two-stage separable virtual-channel allocator,
// including the protected router's arbiter borrowing.
func (r *Router) vaStage(cy sim.Cycle) {
	if r.vaPorts == 0 {
		return
	}
	P, V := r.cfg.Ports, r.cfg.VCs
	W := r.va2Words()
	vaWait, va1Faulty, va1 := r.vaWait(), r.va1Faulty(), r.va1()
	va2req, va2any := r.va2req(), r.va2any()
	// Stage 1: each input VC in VCAlloc (vaPorts, vaWait) picks one
	// candidate downstream VC.
	requested := false
	for ports := r.vaPorts; ports != 0; ports &= ports - 1 {
		p := bits.TrailingZeros64(ports)
		vcs := r.portVCs(p)
		for m := vaWait[p]; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			q := &vcs[v]
			arbVC := v
			if va1Faulty[p]>>uint(v)&1 != 0 {
				if !r.cfg.FaultTolerant {
					continue // baseline: the VC is dead
				}
				lender := vc.FindLender(vcs, v, va1Faulty[p])
				if lender == vc.None {
					// Scenario 2: every candidate lender is busy
					// allocating this cycle; wait one cycle.
					r.obs.VABorrowStall(cy, p, v)
					continue
				}
				// Deposit the borrow request in the lender's state fields
				// (Figure 4); the allocation below acts for the borrower.
				lq := &vcs[lender]
				lq.R2 = q.R
				lq.ID = int8(v)
				lq.VF = true
				arbVC = lender
				r.obs.VABorrow(cy, p, v, lender)
			}
			if free := r.freeDownVCs(q, v); free != 0 {
				out := int(q.R)
				if dvc, ok := va1[p*V+arbVC].GrantWord(free); ok {
					k, bit := va2Bit(p, v, V)
					va2req[(out*V+dvc)*W+k] |= bit
					va2any[out] |= 1 << uint(dvc)
					requested = true
				}
			}
			if arbVC != v {
				// The VA unit resets R2/ID/VF once the borrowed arbiters
				// have served the borrower (Section V-B2).
				vcs[arbVC].ClearBorrow()
			}
		}
	}

	// Stage 2: one arbiter per downstream VC resolves conflicts, consuming
	// (and clearing) the request sets stage 1 filled. A set is one bit per
	// input VC, bit p*VCs+v for (p, v), which is the input index the
	// (Ports·VCs)-input arbiter gives that VC: the arbiter reads it as
	// 64-bit words and its winner's flat index is the VC's.
	if !requested {
		return
	}
	va2, busy := r.va2(), r.outBusy()
	for out := 0; out < P; out++ {
		any := va2any[out]
		va2any[out] = 0
		for ; any != 0; any &= any - 1 {
			dvc := bits.TrailingZeros64(any)
			reqs := va2req[(out*V+dvc)*W:][:W]
			arb := &va2[out*V+dvc]
			if arb.Faulty() {
				// Section V-B3: the requesters lose this downstream VC
				// and re-arbitrate for a different one next cycle.
				cands := 0
				for _, w := range reqs {
					cands += bits.OnesCount64(w)
				}
				clear(reqs)
				r.obs.VARetry(cy, out, dvc, cands)
				continue
			}
			k, bit, ok := arb.GrantWords(reqs, 64)
			clear(reqs)
			if !ok {
				continue
			}
			in := k<<6 | bit
			wp, wv := in/V, in%V
			q := r.inVC(wp, wv)
			q.G = vc.Active
			q.OutVC = int8(dvc)
			r.vaDone(wp, wv)
			busy[out] |= 1 << uint(dvc)
			r.obs.VAAlloc(cy, wp, wv, out, dvc)
			if r.obs != nil {
				r.noteAdvance(wp, wv)
			}
		}
	}
}

// saReady reports whether input VC q can compete in switch allocation this
// cycle: it is active, has a buffered flit, its output path is currently
// usable, and a downstream credit is available.
func (r *Router) saReady(q *vc.VC) bool {
	if q.G != vc.Active || q.Empty() {
		return false
	}
	if _, ok := r.effectiveRequestPort(q); !ok {
		return false
	}
	return r.credits[int(q.R)*r.cfg.VCs+int(q.OutVC)] > 0
}

// effectiveRequestPort returns the output port whose SA stage-2 arbiter
// the VC must request: the routed port when its regular path works, or
// the secondary port when the protected router must detour (refreshing
// SP/FSP so mid-packet faults are also rerouted). ok is false when no
// usable path remains.
func (r *Router) effectiveRequestPort(q *vc.VC) (topology.Port, bool) {
	if r.primaryOK(q.R) {
		q.FSP = false
		return q.R, true
	}
	if r.secondaryPathUsable(q.R) {
		q.FSP = true
		q.SP = topology.Port(r.xb.SecondaryOf(int(q.R)))
		return q.SP, true
	}
	return topology.Local, false
}

// saCands returns the VCs of input port p that switch allocation looks
// at: the occupied ones that are past VC allocation (Active, or Dropping,
// which saReady refuses).
func (r *Router) saCands(p int) uint64 {
	return *r.word(rowOcc, p) &^ *r.word(rowRCWait, p) &^ *r.word(rowVAWait, p)
}

// saStage runs the two-stage separable switch allocator with the
// protected router's bypass path and VC transfer.
func (r *Router) saStage(cy sim.Cycle) {
	// Stage 1: pick one VC per input port. A port with no VC past VC
	// allocation has nothing to request — unless it is in bypass mode,
	// whose default winner and adoption age advance on empty cycles too.
	// Each winner is recorded in saWinners[p] and as bit p of
	// sa2req[its request port], so stage 2 finds its request words built
	// and reads only the entries of this cycle's winners.
	won := false
	sa2req := r.sa2req()
	for p := 0; p < r.cfg.Ports; p++ {
		m := r.saCands(p)
		b := &r.sa1[p]
		if m == 0 && !b.Arb.Faulty() {
			continue
		}
		vcs := r.portVCs(p)
		var ready uint64
		for ; m != 0; m &= m - 1 {
			if v := bits.TrailingZeros64(m); r.saReady(&vcs[v]) {
				ready |= 1 << uint(v)
			}
		}
		var w int
		var ok, bypassed bool
		switch {
		case !b.Arb.Faulty():
			w, ok = b.Arb.GrantWord(ready)
		case !r.cfg.FaultTolerant:
			continue // baseline: the port is dead
		case b.BypassFaulty():
			continue // both paths gone; Functional() reports failure
		default:
			// Bypass path: the default winner is chosen without
			// arbitration (Section V-C1). An adoption (a completed
			// transfer into the default winner) expires when the
			// packet's tail departs or when the default winner rotates
			// on — the rotation is what guarantees every VC of the port
			// is eventually served, so adoption must never outlive it
			// (otherwise a credit-stalled adopted packet could block a
			// sibling it transitively depends on).
			adopted, age := r.saAdopted(), r.saAdoptAge()
			if a := adopted[p]; a >= 0 {
				age[p]++
				if vcs[a].G != vc.Active || int(age[p]) >= r.cfg.BypassRotatePeriod {
					adopted[p] = -1
				}
			}
			if a := adopted[p]; a >= 0 {
				if ready&(1<<uint(a)) == 0 {
					continue // waiting (e.g., on credits)
				}
				w, ok, bypassed = int(a), true, true
				r.obs.SABypassGrant(p)
				break
			}
			w, ok = b.GrantWord(ready)
			if ok && ready&(1<<uint(w)) == 0 {
				// The default winner cannot send. If it is idle and
				// empty, transfer a sibling's flits and state into it;
				// the transfer itself consumes this cycle.
				r.tryTransfer(cy, p, w)
				continue
			}
			if ok {
				bypassed = true
				r.obs.SABypassGrant(p)
			}
		}
		if !ok {
			continue
		}
		q := &vcs[w]
		reqPort, pathOK := r.effectiveRequestPort(q)
		if !pathOK {
			continue
		}
		r.saWinners[p] = saWinner{vcIdx: int8(w), outPort: q.R, secondary: q.FSP, bypass: bypassed}
		sa2req[reqPort] |= 1 << uint(p)
		won = true
	}

	// Stage 2: one arbiter per output port resolves input-port conflicts,
	// consuming (and clearing) the request words stage 1 built.
	if !won {
		return
	}
	sa2 := r.sa2()
	for out := 0; out < r.cfg.Ports; out++ {
		req := sa2req[out]
		if req == 0 {
			continue
		}
		sa2req[out] = 0
		wp, ok := sa2[out].GrantWord(req)
		if !ok {
			continue
		}
		win := r.saWinners[wp]
		q := r.inVC(wp, int(win.vcIdx))
		r.creditSpend(win.outPort, int(q.OutVC))
		r.grants = append(r.grants, grant{
			inPort:    topology.Port(wp),
			inVC:      win.vcIdx,
			outPort:   win.outPort,
			secondary: win.secondary,
		})
		r.obs.SAGrant(cy, wp, int(win.vcIdx), int(win.outPort), win.bypass)
		if r.obs != nil {
			r.noteAdvance(wp, int(win.vcIdx))
		}
	}
}

// tryTransfer performs the Section V-C1 transfer: when the bypass default
// winner dst is idle and empty while a sibling VC holds a sendable packet,
// the sibling's flits and state fields move into dst's buffers in one
// cycle (this cycle — no grant is issued). We model the result as
// adoption: from the next cycle the moved packet is served as the default
// winner, while flow control keeps the packet's original VC identity so
// the upstream router's per-VC credits and allocation state stay exact.
func (r *Router) tryTransfer(cy sim.Cycle, port, dst int) {
	vcs := r.portVCs(port)
	d := &vcs[dst]
	if d.G != vc.Idle || !d.Empty() {
		return // default winner holds a packet that is simply not ready
	}
	cand := -1
	for m := r.saCands(port); m != 0; m &= m - 1 { // dst is Idle: not in the mask
		v := bits.TrailingZeros64(m)
		s := &vcs[v]
		if s.G != vc.Active || s.Empty() {
			continue
		}
		if r.saReady(s) {
			cand = v
			break
		}
		if cand < 0 {
			cand = v
		}
	}
	if cand >= 0 {
		r.saAdopted()[port] = int16(cand)
		r.saAdoptAge()[port] = 0
		r.obs.SATransfer(cy, port, dst, cand)
		if r.obs != nil {
			// The one-cycle transfer is the bypass mechanism making
			// progress, not a stall of the adopted VC.
			r.noteAdvance(port, cand)
		}
	}
}

// xbStage executes the previous cycle's grants: pops each granted flit,
// moves it through the crossbar (secondary path when directed) and emits
// it plus the upstream credit.
func (r *Router) xbStage(cy sim.Cycle) {
	r.xb.BeginCycle()
	for _, g := range r.grants {
		q := r.inVC(int(g.inPort), int(g.inVC))
		err := r.xb.Traverse(int(g.inPort), int(g.outPort), g.secondary)
		if err != nil && r.cfg.FaultTolerant {
			// A fault can appear between the grant (last cycle's SA) and
			// the traversal; the protected router tries the other path
			// before giving up. The baseline has only the primary.
			if err = r.xb.Traverse(int(g.inPort), int(g.outPort), !g.secondary); err == nil {
				g.secondary = !g.secondary
			}
		}
		if err != nil {
			// No usable path remains this cycle: cancel the grant, refund
			// the reserved credit, and let switch allocation retry (the
			// retry re-evaluates SP/FSP against the new fault state).
			r.creditReturn(g.outPort, int(q.OutVC))
			continue
		}
		f := q.Pop()
		r.obs.XBTraverse(cy, int(g.inPort), int(g.inVC), int(g.outPort), g.secondary)
		if r.obs != nil {
			r.noteAdvance(int(g.inPort), int(g.inVC))
		}
		r.outFlits = append(r.outFlits, router.OutFlit{Out: g.outPort, DownVC: q.OutVC, F: f})
		r.outCredits = append(r.outCredits, router.Credit{
			In:     g.inPort,
			VC:     q.Index,
			VCFree: f.Kind.IsTail(),
		})
		if f.Kind.IsTail() {
			q.ResetPacketState()
			r.vcRelease(g.inPort, int(g.inVC))
		}
	}
	r.grants = r.grants[:0]
}

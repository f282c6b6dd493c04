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
	for _, c := range r.inCredits {
		r.creditReturn(topology.Port(c.out), int(c.vc))
		if c.free {
			r.outVCBusy[int(c.out)*V+int(c.vc)] = false
		}
	}
	r.inCredits = r.inCredits[:0]

	for _, inf := range r.inFlits {
		p, v := int(inf.in), int(inf.vc)
		q := &r.vcs[p*V+v]
		if inf.f.Kind.IsHead() {
			if q.G != vc.Idle {
				panic(fmt.Sprintf("core: router %d head flit into busy VC %v/%d (G=%v)", r.ID, topology.Port(p), v, q.G))
			}
			q.G = vc.Routing
			r.vcOccupy(topology.Port(p), v)
		}
		q.Push(inf.f)
	}
	r.inFlits = r.inFlits[:0]
}

// rcStage performs routing computation for at most one head flit per input
// port (each port has a single RC unit). In the protected router the
// duplicate unit covers a faulty primary, and the SP/FSP fields are set
// when the computed output port's regular path is unusable (Section V-D).
func (r *Router) rcStage(cy sim.Cycle) {
	for p := 0; p < r.cfg.Ports; p++ {
		m := r.occ[p]
		if m == 0 {
			continue
		}
		vcs := r.portVCs(p)
		// Visit the occupied VCs from rcScan[p] upward, then the ones
		// below it: the order (rcScan[p]+i) mod VCs takes them in.
		below := m & (1<<uint(r.rcScan[p]) - 1)
	scan:
		for _, part := range [2]uint64{m &^ below, below} {
			for ; part != 0; part &= part - 1 {
				idx := bits.TrailingZeros64(part)
				q := &vcs[idx]
				if q.G != vc.Routing || !headReady(q) {
					continue
				}
				out, ok, unreachable := r.computeRoute(cy, p, q)
				if unreachable {
					// Network faults cut every remaining path to the
					// destination: discard the packet. The drain stage frees
					// the buffered flits one per cycle, returning credits
					// upstream, until the tail releases the VC.
					q.G = vc.Dropping
					r.dropping++
					r.droppedPkts = append(r.droppedPkts, q.Front().Pkt)
					r.rcScan[p] = r.vcAfter(idx)
					break scan
				}
				if !ok {
					// No fault-free RC copy: the packet is stuck. The router
					// is no longer Functional(); leave the VC in Routing.
					break scan
				}
				q.R = out
				q.FSP = false
				if r.cfg.FaultTolerant && !r.primaryPathUsable(out) {
					if r.secondaryPathUsable(out) {
						q.FSP = true
						q.SP = topology.Port(r.xbProt.SecondaryOf(int(out)))
					}
					// If neither path works the packet waits; Functional()
					// reports the router failed.
				}
				q.G = vc.VCAlloc
				if o := r.obs; o != nil {
					o.RCCompute(cy, p, idx, int(out), r.rc[p].Faulty(0))
					r.noteAdvance(p, idx)
				}
				r.rcScan[p] = r.vcAfter(idx)
				break scan // one RC per port per cycle
			}
		}
	}
}

// vcAfter returns the VC index that follows v in round-robin order.
func (r *Router) vcAfter(v int) int {
	if v+1 == r.cfg.VCs {
		return 0
	}
	return v + 1
}

// computeRoute runs the port's RC unit, tracking duplicate use. With a
// fault-aware route function installed the unit computes that function
// instead of XY (unreachable=true when no path to the destination
// survives); without one the behavior is exactly the baseline XY lookup.
func (r *Router) computeRoute(cy sim.Cycle, p int, q *vc.VC) (out topology.Port, ok, unreachable bool) {
	u := r.rc[p]
	if !u.Usable() {
		return topology.Local, false, false
	}
	if u.Faulty(0) {
		r.Counters.RCDuplicateUses++
	}
	dst := q.Front().Pkt.Dst
	if fn := r.routeFn; fn != nil {
		//nocvet:ignore hotpathalloc RouteFn targets are pre-built table lookups (torusRoute, routeTable), pinned allocation-free by the zero-alloc suite
		fout, lo, hi, fok := fn(r.ID, topology.Port(p), q.Index, dst)
		if !fok {
			return topology.Local, false, true
		}
		q.DvcLo, q.DvcHi = lo, hi
		//nocvet:ignore hotpathalloc topology Route implementations are pure coordinate arithmetic
		if r.ID != dst && fout != r.topo.Route(r.ID, dst) {
			q.Detour = true
			r.Counters.Reroutes++
			if o := r.obs; o != nil {
				o.Reroute(cy, p, q.Index, int(fout))
			}
		}
		return fout, true, false
	}
	out, ok = u.Compute(r.ID, dst)
	return out, ok, false
}

// drainStage discards one buffered flit per Dropping VC per cycle,
// returning the credit (and on the tail, the VC-free signal) upstream so
// the upstream router's flow control unwinds exactly as if the flits had
// been forwarded.
func (r *Router) drainStage() {
	if r.dropping == 0 {
		return
	}
	for p, m := range r.occ {
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
// free.
func (r *Router) primaryPathUsable(out topology.Port) bool {
	if r.sa.Stage2(int(out)).Faulty() {
		return false
	}
	if r.cfg.FaultTolerant {
		return r.xbProt.PrimaryUsable(int(out))
	}
	return !r.xbBase.MuxFaulty(int(out))
}

// secondaryPathUsable reports whether output out can be reached through
// the protected crossbar's secondary path: the neighbouring mux, the
// demux/Pk leg and the neighbouring port's SA stage-2 arbiter must all be
// fault free. Only meaningful for the protected router.
func (r *Router) secondaryPathUsable(out topology.Port) bool {
	if !r.cfg.FaultTolerant {
		return false
	}
	sec := r.xbProt.SecondaryOf(int(out))
	return r.xbProt.SecondaryUsable(int(out)) && !r.sa.Stage2(sec).Faulty()
}

// vaStage runs the two-stage separable virtual-channel allocator,
// including the protected router's arbiter borrowing.
func (r *Router) vaStage(cy sim.Cycle) {
	P, V := r.cfg.Ports, r.cfg.VCs
	// Stage 1: each input VC in VCAlloc picks one candidate downstream VC.
	requested := false
	for p := 0; p < P; p++ {
		vcs := r.portVCs(p)
		for m := r.occ[p]; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			q := &vcs[v]
			if q.G != vc.VCAlloc {
				continue
			}
			arbVC := v
			if r.va.Stage1Faulty(p, v) {
				if !r.cfg.FaultTolerant {
					continue // baseline: the VC is dead
				}
				//nocvet:ignore hotpathalloc the closure captures only loop-local state and never escapes FindLender: stack-allocated
				lender := r.in[p].FindLender(v, func(i int) bool { return r.va.Stage1Faulty(p, i) })
				if lender == vc.None {
					// Scenario 2: every candidate lender is busy
					// allocating this cycle; wait one cycle.
					r.Counters.VA1BorrowStalls++
					if o := r.obs; o != nil {
						o.VABorrowStall(cy, p, v)
					}
					continue
				}
				// Deposit the borrow request in the lender's state fields
				// (Figure 4); the allocation below acts for the borrower.
				lq := &vcs[lender]
				lq.R2 = q.R
				lq.ID = v
				lq.VF = true
				arbVC = lender
				r.Counters.VA1Borrows++
				if o := r.obs; o != nil {
					o.VABorrow(cy, p, v, lender)
				}
			}
			out := int(q.R)
			cls := r.cfg.ClassOf(v)
			lo, hi := r.cfg.ClassRange(cls)
			if q.DvcLo < q.DvcHi {
				// Fault-aware routing pinned the packet to a downstream
				// VC layer; allocate only inside it.
				lo, hi = q.DvcLo, q.DvcHi
			}
			// The request word: the free downstream VCs of the range.
			var free uint64
			busy := r.outVCBusy[out*V : (out+1)*V]
			for dvc := lo; dvc < hi; dvc++ {
				if !busy[dvc] {
					free |= 1 << uint(dvc)
				}
			}
			if free != 0 {
				if dvc, ok := r.va.Stage1(p, arbVC).GrantWord(free); ok {
					r.va2req[(out*V+dvc)*P+p] |= 1 << uint(v)
					r.va2any[out] |= 1 << uint(dvc)
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
	// (and clearing) the request words stage 1 filled.
	if !requested {
		return
	}
	for out := 0; out < P; out++ {
		any := r.va2any[out]
		r.va2any[out] = 0
		for ; any != 0; any &= any - 1 {
			dvc := bits.TrailingZeros64(any)
			reqs := r.va2req[(out*V+dvc)*P:][:P]
			arb := r.va.Stage2(out, dvc)
			if arb.Faulty() {
				// Section V-B3: the requesters lose this downstream VC
				// and re-arbitrate for a different one next cycle.
				cands := 0
				for _, w := range reqs {
					cands += bits.OnesCount64(w)
				}
				clear(reqs)
				r.Counters.VA2Retries += uint64(cands)
				if o := r.obs; o != nil {
					o.VARetry(cy, out, dvc, cands)
				}
				continue
			}
			wp, wv, ok := arb.GrantWords(reqs, V)
			clear(reqs)
			if !ok {
				continue
			}
			q := r.inVC(wp, wv)
			q.G = vc.Active
			q.OutVC = dvc
			r.outVCBusy[out*V+dvc] = true
			if o := r.obs; o != nil {
				o.VAAlloc(cy, wp, wv, out, dvc)
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
	return r.credits[int(q.R)*r.cfg.VCs+q.OutVC] > 0
}

// effectiveRequestPort returns the output port whose SA stage-2 arbiter
// the VC must request: the routed port when its regular path works, or
// the secondary port when the protected router must detour (refreshing
// SP/FSP so mid-packet faults are also rerouted). ok is false when no
// usable path remains.
func (r *Router) effectiveRequestPort(q *vc.VC) (topology.Port, bool) {
	if r.primaryPathUsable(q.R) {
		q.FSP = false
		return q.R, true
	}
	if r.secondaryPathUsable(q.R) {
		q.FSP = true
		q.SP = topology.Port(r.xbProt.SecondaryOf(int(q.R)))
		return q.SP, true
	}
	return topology.Local, false
}

// saStage runs the two-stage separable switch allocator with the
// protected router's bypass path and VC transfer.
func (r *Router) saStage(cy sim.Cycle) {
	// Stage 1: pick one VC per input port. An empty port has nothing to
	// request — unless it is in bypass mode, whose default winner and
	// adoption age advance on empty cycles too. Each winner is recorded in
	// saWinners[p] and as bit p of sa2req[its request port], so stage 2
	// finds its request words built and reads only the entries of this
	// cycle's winners.
	won := false
	for p := 0; p < r.cfg.Ports; p++ {
		m := r.occ[p]
		b := r.sa.Stage1(p)
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
			if a := r.saAdopted[p]; a >= 0 {
				r.saAdoptAge[p]++
				if vcs[a].G != vc.Active || r.saAdoptAge[p] >= r.cfg.BypassRotatePeriod {
					r.saAdopted[p] = -1
				}
			}
			if a := r.saAdopted[p]; a >= 0 {
				if ready&(1<<uint(a)) == 0 {
					continue // waiting (e.g., on credits)
				}
				w, ok, bypassed = a, true, true
				r.Counters.SABypassGrants++
				if o := r.obs; o != nil {
					o.SABypassGrant(p)
				}
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
				r.Counters.SABypassGrants++
				if o := r.obs; o != nil {
					o.SABypassGrant(p)
				}
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
		r.saWinners[p] = saWinner{vcIdx: w, outPort: q.R, secondary: q.FSP, bypass: bypassed}
		r.sa2req[reqPort] |= 1 << uint(p)
		won = true
	}

	// Stage 2: one arbiter per output port resolves input-port conflicts,
	// consuming (and clearing) the request words stage 1 built.
	if !won {
		return
	}
	for out := 0; out < r.cfg.Ports; out++ {
		req := r.sa2req[out]
		if req == 0 {
			continue
		}
		r.sa2req[out] = 0
		wp, ok := r.sa.Stage2(out).GrantWord(req)
		if !ok {
			continue
		}
		win := r.saWinners[wp]
		q := r.inVC(wp, win.vcIdx)
		r.creditSpend(win.outPort, q.OutVC)
		r.grants = append(r.grants, grant{
			inPort:    topology.Port(wp),
			inVC:      win.vcIdx,
			outPort:   win.outPort,
			secondary: win.secondary,
		})
		if o := r.obs; o != nil {
			o.SAGrant(cy, wp, win.vcIdx, int(win.outPort), win.bypass)
			r.noteAdvance(wp, win.vcIdx)
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
	for m := r.occ[port]; m != 0; m &= m - 1 { // dst is Idle: not in the mask
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
		r.saAdopted[port] = cand
		r.saAdoptAge[port] = 0
		r.Counters.SATransfers++
		if o := r.obs; o != nil {
			o.SATransfer(cy, port, dst, cand)
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
	if r.cfg.FaultTolerant {
		r.xbProt.BeginCycle()
	} else {
		r.xbBase.BeginCycle()
	}
	for _, g := range r.grants {
		q := r.inVC(int(g.inPort), g.inVC)
		var err error
		if r.cfg.FaultTolerant {
			err = r.xbProt.Traverse(int(g.inPort), int(g.outPort), g.secondary)
			if err != nil {
				// A fault can appear between the grant (last cycle's SA)
				// and the traversal; try the other path before giving up.
				err = r.xbProt.Traverse(int(g.inPort), int(g.outPort), !g.secondary)
				if err == nil {
					g.secondary = !g.secondary
				}
			}
		} else {
			err = r.xbBase.Traverse(int(g.inPort), int(g.outPort))
		}
		if err != nil {
			// No usable path remains this cycle: cancel the grant, refund
			// the reserved credit, and let switch allocation retry (the
			// retry re-evaluates SP/FSP against the new fault state).
			r.creditReturn(g.outPort, q.OutVC)
			continue
		}
		f := q.Pop()
		if g.secondary {
			r.Counters.XBSecondary++
		}
		r.Counters.FlitsRouted++
		if o := r.obs; o != nil {
			o.XBTraverse(cy, int(g.inPort), g.inVC, int(g.outPort), g.secondary)
			r.noteAdvance(int(g.inPort), g.inVC)
		}
		r.outFlits = append(r.outFlits, router.OutFlit{Out: g.outPort, DownVC: q.OutVC, F: f})
		r.outCredits = append(r.outCredits, router.Credit{
			In:     g.inPort,
			VC:     q.Index,
			VCFree: f.Kind.IsTail(),
		})
		if f.Kind.IsTail() {
			q.ResetPacketState()
			r.vcRelease(g.inPort, g.inVC)
		}
	}
	r.grants = r.grants[:0]
}

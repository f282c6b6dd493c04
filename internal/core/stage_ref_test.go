package core

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// This file keeps the RC, VA and SA stages that the stage words of
// pipeline.go replaced, verbatim but for the ref prefix, the busy bits
// (the router's []bool became one word per output port) and a hot-path
// lint directive a test file does not need: each
// stage walks every occupied VC of every port (occ), switches on its G
// field, and probes the SA stage-2 arbiter and the crossbar multiplexer
// per VC (primaryPathUsable) where the stages now read rcWait, vaWait
// and pathOK. They are the oracle of FuzzTickMatchesReference, the
// pattern of refStallScan and refGrant (internal/arbiter). They write
// none of the stage words, which a router stepped by refTick therefore
// leaves stale: nothing on its path reads them.

// refTick is Router.Tick with the reference stages.
func refTick(r *Router, cy sim.Cycle) {
	r.acceptInputs()
	if r.quiescent() {
		return
	}
	r.drainStage()
	r.xbStage(cy)
	r.refSAStage(cy)
	r.refVAStage(cy)
	r.refRCStage(cy)
	r.stallScan(cy)
}

// refRCStage is the rcStage the stage words replaced.
func (r *Router) refRCStage(cy sim.Cycle) {
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
						q.SP = topology.Port(r.xb.SecondaryOf(int(out)))
					}
					// If neither path works the packet waits; Functional()
					// reports the router failed.
				}
				q.G = vc.VCAlloc
				if o := r.obs; o != nil {
					o.RCCompute(cy, p, idx, int(out), r.RCFault(topology.Port(p), 0))
					r.noteAdvance(p, idx)
				}
				r.rcScan[p] = r.vcAfter(idx)
				break scan // one RC per port per cycle
			}
		}
	}
}

// refVAStage is the vaStage the stage words replaced.
func (r *Router) refVAStage(cy sim.Cycle) {
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
			if r.VA1Fault(topology.Port(p), v) {
				if !r.cfg.FaultTolerant {
					continue // baseline: the VC is dead
				}
				lender := r.in[p].FindLender(v, func(i int) bool { return r.VA1Fault(topology.Port(p), i) })
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
			busy := r.outBusy[out]
			for dvc := lo; dvc < hi; dvc++ {
				if busy>>uint(dvc)&1 == 0 {
					free |= 1 << uint(dvc)
				}
			}
			if free != 0 {
				if dvc, ok := r.va1[p*V+arbVC].GrantWord(free); ok {
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
			arb := &r.va2[out*V+dvc]
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
			r.outBusy[out] |= 1 << uint(dvc)
			if o := r.obs; o != nil {
				o.VAAlloc(cy, wp, wv, out, dvc)
				r.noteAdvance(wp, wv)
			}
		}
	}
}

// refSAReady is the saReady the stage words replaced.
func (r *Router) refSAReady(q *vc.VC) bool {
	if q.G != vc.Active || q.Empty() {
		return false
	}
	if _, ok := r.refEffectiveRequestPort(q); !ok {
		return false
	}
	return r.credits[int(q.R)*r.cfg.VCs+q.OutVC] > 0
}

// refEffectiveRequestPort is the effectiveRequestPort the stage words replaced.
func (r *Router) refEffectiveRequestPort(q *vc.VC) (topology.Port, bool) {
	if r.primaryPathUsable(q.R) {
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

// refSAStage is the saStage the stage words replaced.
func (r *Router) refSAStage(cy sim.Cycle) {
	// Stage 1: pick one VC per input port. An empty port has nothing to
	// request — unless it is in bypass mode, whose default winner and
	// adoption age advance on empty cycles too. Each winner is recorded in
	// saWinners[p] and as bit p of sa2req[its request port], so stage 2
	// finds its request words built and reads only the entries of this
	// cycle's winners.
	won := false
	for p := 0; p < r.cfg.Ports; p++ {
		m := r.occ[p]
		b := &r.sa1[p]
		if m == 0 && !b.Arb.Faulty() {
			continue
		}
		vcs := r.portVCs(p)
		var ready uint64
		for ; m != 0; m &= m - 1 {
			if v := bits.TrailingZeros64(m); r.refSAReady(&vcs[v]) {
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
				r.refTryTransfer(cy, p, w)
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
		reqPort, pathOK := r.refEffectiveRequestPort(q)
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
		wp, ok := r.sa2[out].GrantWord(req)
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

// refTryTransfer is the tryTransfer the stage words replaced.
func (r *Router) refTryTransfer(cy sim.Cycle, port, dst int) {
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
		if r.refSAReady(s) {
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

// flipFault toggles the router-internal fault site kind selects at the
// port (and VC) site selects. The duplicate RC unit and the secondary
// crossbar path exist only in the protected router.
func flipFault(r *Router, kind, site byte) {
	cfg := r.Config()
	p := topology.Port(int(site) % cfg.Ports)
	v := int(site) / cfg.Ports % cfg.VCs
	switch kind % 9 {
	case 0:
		r.SetRCFault(p, 0, !r.RCFault(p, 0))
	case 1:
		if cfg.FaultTolerant {
			r.SetRCFault(p, 1, !r.RCFault(p, 1))
		}
	case 2:
		r.SetVA1Fault(p, v, !r.VA1Fault(p, v))
	case 3:
		r.SetVA2Fault(p, v, !r.VA2Fault(p, v))
	case 4:
		r.SetSA1Fault(p, !r.SA1Fault(p))
	case 5:
		r.SetSA1BypassFault(p, !r.SA1BypassFault(p))
	case 6:
		r.SetSA2Fault(p, !r.SA2Fault(p))
	case 7:
		r.SetXBFault(p, !r.XBFault(p))
	case 8:
		if cfg.FaultTolerant {
			r.SetXBSecondaryFault(p, !r.XBSecondaryFault(p))
		}
	}
}

// layeredRoute is a fault-aware route function for the feeder's mesh,
// chosen by seed: per destination and input VC it pins the packet to a
// downstream VC layer [lo, hi) or to none, and now and then detours it
// through another output or declares the destination unreachable.
func layeredRoute(mesh topology.Mesh, vcs int, seed byte) RouteFn {
	return func(cur int, in topology.Port, vcIdx, dst int) (topology.Port, int, int, bool) {
		h := int(seed) + 7*vcIdx + 3*dst
		out := mesh.Route(cur, dst)
		switch h % 8 {
		case 0:
			return topology.Local, 0, 0, false
		case 1:
			if out != topology.Local {
				out = topology.North + (out-topology.North+1)%4
			}
		}
		if h/8%4 == 0 {
			return out, 0, 0, true
		}
		lo := h / 32 % vcs
		return out, lo, lo + 1 + h/4%(vcs-lo), true
	}
}

// FuzzTickMatchesReference steps twin routers on the feeder harness, one
// through Tick and one through refTick, and flips the same faults in
// both mid-packet. The header picks the VCs (1-8) and classes (1-2), the
// buffer depth and bypass rotation period, the credit delay, the router
// design, which VCs are fed and a fault-aware route function with
// downstream VC layers (layeredRoute); each later three bytes run some
// cycles and then toggle an RC, VA stage-1 or stage-2, SA stage-1,
// SA bypass, SA stage-2, crossbar mux or secondary-path fault. Every
// cycle the twins must emit the same flits and credits in the same
// order, drop the same packets, and agree on the canonical state and the
// counters; the production router's derived words must match a recount.
func FuzzTickMatchesReference(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzTickMatchesReference.
	f.Add([]byte{3, 3, 0, 0, 0, 5, 2, 9, 20, 7, 0, 30, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 5 {
			data = append(data, 0)
		}
		cfg := router.DefaultConfig()
		cfg.VCs = 1 + int(data[0]%8)
		cfg.Classes = 1 + int(data[0]>>3&1)
		if cfg.VCs%cfg.Classes != 0 {
			cfg.Classes = 1
		}
		cfg.Depth = 1 + int(data[1]%6)
		cfg.BypassRotatePeriod = 1 + int(data[1]/6%8)
		delay := int(data[2] % 8)
		cfg.FaultTolerant = data[2]&8 == 0
		fed := func(p, v int) bool { return data[3] == 0 || data[3]>>uint((p*cfg.VCs+v)%8)&1 != 0 }
		build := func() *feeder {
			fd := newFeeder(cfg, fed)
			if data[4] != 0 {
				fd.r.SetRouteFn(layeredRoute(topology.NewMesh(3, 3), cfg.VCs, data[4]))
			}
			return fd
		}
		got, ref := build(), build()
		heldGot, heldRef := make([][]CreditIn, delay+1), make([][]CreditIn, delay+1)
		var canonGot, canonRef []byte

		step := func() {
			got.offer()
			ref.offer()
			got.r.Tick(got.cycle)
			refTick(ref.r, ref.cycle)
			c := got.cycle
			got.cycle++
			ref.cycle++
			sameFlit := func(a, b router.OutFlit) bool {
				return a.Out == b.Out && a.DownVC == b.DownVC &&
					bytes.Equal(AppendCanonicalFlit(nil, a.F), AppendCanonicalFlit(nil, b.F))
			}
			if !slices.EqualFunc(got.r.outFlits, ref.r.outFlits, sameFlit) {
				t.Fatalf("cycle %d: out flits %v, reference %v", c, got.r.outFlits, ref.r.outFlits)
			}
			if !slices.Equal(got.r.outCredits, ref.r.outCredits) {
				t.Fatalf("cycle %d: out credits %v, reference %v", c, got.r.outCredits, ref.r.outCredits)
			}
			if a, b := got.r.TakeDropped(), ref.r.TakeDropped(); !slices.EqualFunc(a, b, func(x, y *flit.Packet) bool { return x.Dst == y.Dst }) {
				t.Fatalf("cycle %d: dropped %d packets, reference %d", c, len(a), len(b))
			}
			got.collectHeld(heldGot)
			ref.collectHeld(heldRef)
			canonGot, canonRef = got.r.AppendCanonical(canonGot[:0]), ref.r.AppendCanonical(canonRef[:0])
			if !bytes.Equal(canonGot, canonRef) {
				t.Fatalf("cycle %d: canonical states differ", c)
			}
			if got.r.Counters != ref.r.Counters {
				t.Fatalf("cycle %d: counters %+v, reference %+v", c, got.r.Counters, ref.r.Counters)
			}
			if err := got.r.CheckOccupancy(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}

		for ev := data[5:]; len(ev) >= 3; ev = ev[3:] {
			for k := int(ev[0] % 64); k > 0; k-- {
				step()
			}
			flipFault(got.r, ev[1], ev[2])
			flipFault(ref.r, ev[1], ev[2])
		}
		for k := 0; k < 200; k++ {
			step()
		}
	})
}

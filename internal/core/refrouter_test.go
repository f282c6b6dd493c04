package core

import (
	"bytes"
	"slices"
	"testing"

	"gonoc/internal/canon"
	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// refRouter is Section V stated as plainly as it can be, the oracle
// Router is stepped against: its own state, one struct per VC and per
// port, its own round-robin arbiter over []bool requests, and every
// stage walking every port and VC, with nothing for the router's masks,
// stage words, path word or recycled storage. It takes only the
// configuration, the route function and the fault sites from the router
// it shadows.
type refRouter struct {
	cfg    router.Config
	id     int
	topo   topology.Topology
	route  RouteFn
	ports  []refPort
	grants []grant // SA's winners, crossing the crossbar next cycle

	outFlits   []router.OutFlit // one cycle's output, as Router's latches
	outCredits []router.Credit
	dropped    []*flit.Packet
	counters   Counters
	stalls     []uint64 // stall counts at (p*VCs+v)*obs.NumStallKinds+kind
}

// refPort is input port p and output port p.
type refPort struct {
	vcs []refVC
	// Input side: the RC units, the RC pointer, the VA stage-1 arbiter
	// sets, the SA stage-1 arbiter and its bypass path.
	rcFaulty          [2]bool
	rcScan            int
	va1               []rr
	sa1               rr
	winner, rot       int // the default winner, and grants since it rotated
	bypassFaulty      bool
	adopted, adoptAge int // the VC a transfer adopted, and for how long
	// Output side: the downstream VCs' credits, allocation and VA stage-2
	// arbiters, the SA stage-2 arbiter and the muxes into the output.
	credits              []int
	busy                 []bool
	va2                  []rr
	sa2                  rr
	muxFaulty, secFaulty bool
}

// refVC is one input VC: its flits, the state fields of Figures 3d and
// 4, and whether it advanced this cycle.
type refVC struct {
	flits        []*flit.Flit
	g            vc.GState
	r, r2, sp    topology.Port
	outVC, id    int
	vf, fsp      bool
	detour       bool
	dvcLo, dvcHi int
	advanced     bool
}

// rr is a round-robin arbiter: the first requester at or after prio
// wins, and prio moves just past it. A faulty arbiter grants nothing.
type rr struct {
	prio   int
	faulty bool
}

func (a *rr) grant(req []bool) (int, bool) {
	for i := 0; i < len(req) && !a.faulty; i++ {
		if k := (a.prio + i) % len(req); req[k] {
			a.prio = (k + 1) % len(req)
			return k, true
		}
	}
	return -1, false
}

// newRefRouter returns the reference of r, a fresh router.
func newRefRouter(r *Router) *refRouter {
	cfg := r.Config()
	m := &refRouter{cfg: cfg, id: r.ID, topo: r.topo, route: r.routeFn, ports: make([]refPort, cfg.Ports),
		stalls: make([]uint64, cfg.Ports*cfg.VCs*obs.NumStallKinds)}
	for p := range m.ports {
		port := &m.ports[p]
		port.vcs, port.va1, port.va2 = make([]refVC, cfg.VCs), make([]rr, cfg.VCs), make([]rr, cfg.VCs)
		port.credits, port.busy, port.adopted = make([]int, cfg.VCs), make([]bool, cfg.VCs), -1
		for v := range port.vcs {
			port.vcs[v].outVC, port.vcs[v].id, port.credits[v] = vc.None, vc.None, cfg.Depth
		}
	}
	m.syncFaults(r)
	return m
}

// syncFaults copies r's fault sites.
func (m *refRouter) syncFaults(r *Router) {
	for p := range m.ports {
		port, pp := &m.ports[p], topology.Port(p)
		port.rcFaulty[0], port.sa1.faulty, port.bypassFaulty = r.RCFault(pp, 0), r.SA1Fault(pp), r.SA1BypassFault(pp)
		port.sa2.faulty, port.muxFaulty = r.SA2Fault(pp), r.XBFault(pp)
		if m.cfg.FaultTolerant {
			port.rcFaulty[1], port.secFaulty = r.RCFault(pp, 1), r.XBSecondaryFault(pp)
		}
		for v := range port.vcs {
			port.va1[v].faulty, port.va2[v].faulty = r.VA1Fault(pp, v), r.VA2Fault(pp, v)
		}
	}
}

// tick is one cycle on what Router latched. The stages run in reverse
// pipeline order, so a head flit takes one a cycle: RC, VA, SA, XB.
func (m *refRouter) tick(flits []FlitIn, credits []CreditIn) {
	m.outFlits, m.outCredits, m.dropped = nil, nil, nil
	m.accept(flits, credits)
	m.drain()
	m.xb()
	m.sa()
	m.va()
	m.rc()
	m.classify()
}

// accept applies the credits and buffers the flits.
func (m *refRouter) accept(flits []FlitIn, credits []CreditIn) {
	for _, c := range credits {
		m.ports[c.Out].credits[c.VC]++
		m.ports[c.Out].busy[c.VC] = m.ports[c.Out].busy[c.VC] && !c.VCFree
	}
	for _, in := range flits {
		q := &m.ports[in.In].vcs[in.VC]
		if in.F.Kind.IsHead() {
			q.g = vc.Routing
		}
		q.flits = append(q.flits, in.F)
	}
}

// pop takes input VC (p, v)'s front flit and credits it upstream; the
// tail frees the VC (but for the borrow fields, which are VA's).
func (m *refRouter) pop(p, v int) *flit.Flit {
	q := &m.ports[p].vcs[v]
	f := q.flits[0]
	q.flits = q.flits[1:]
	m.outCredits = append(m.outCredits, router.Credit{In: topology.Port(p), VC: int8(v), VCFree: f.Kind.IsTail()})
	if f.Kind.IsTail() {
		q.g, q.r, q.outVC, q.fsp, q.sp = vc.Idle, topology.Local, vc.None, false, topology.Local
		q.detour, q.dvcLo, q.dvcHi = false, 0, 0
	}
	return f
}

// drain discards a flit a cycle of each packet routing found no path for.
func (m *refRouter) drain() {
	for p := range m.ports {
		for v, q := range m.ports[p].vcs {
			if q.g == vc.Dropping && len(q.flits) > 0 {
				m.pop(p, v)
			}
		}
	}
}

// xb sends last cycle's grants. A grant whose path broke since SA tries
// the other path in the protected router, and is cancelled without one.
func (m *refRouter) xb() {
	used := make([]bool, m.cfg.Ports) // the pi:1 muxes carrying a flit
	for _, g := range m.grants {
		q := &m.ports[g.inPort].vcs[g.inVC]
		ok := m.traverse(used, g.outPort, g.secondary)
		if !ok && m.cfg.FaultTolerant {
			if ok = m.traverse(used, g.outPort, !g.secondary); ok {
				g.secondary = !g.secondary
			}
		}
		if !ok {
			m.ports[g.outPort].credits[q.outVC]++
			continue
		}
		if g.secondary {
			m.counters.XBSecondary++
		}
		m.counters.FlitsRouted++
		q.advanced = true
		down := q.outVC
		m.outFlits = append(m.outFlits, router.OutFlit{Out: g.outPort, DownVC: int8(down), F: m.pop(int(g.inPort), int(g.inVC))})
	}
	m.grants = nil
}

// traverse takes the mux into output out, its own or the neighbour's.
func (m *refRouter) traverse(used []bool, out topology.Port, secondary bool) bool {
	mux := out
	if secondary {
		mux = m.secondaryOf(out)
	}
	if secondary && m.ports[out].secFaulty || m.ports[mux].muxFaulty || used[mux] {
		return false
	}
	used[mux] = true
	return true
}

// secondaryOf is Figure 6's wiring: output 0 is reached through mux 1,
// output 1 through mux P-1, output k through mux k-1.
func (m *refRouter) secondaryOf(out topology.Port) topology.Port {
	if out < 2 {
		return [2]topology.Port{1, topology.Port(m.cfg.Ports - 1)}[out]
	}
	return out - 1
}

// primaryOK: output out's SA stage-2 arbiter and mux work.
func (m *refRouter) primaryOK(out topology.Port) bool {
	return !m.ports[out].sa2.faulty && !m.ports[out].muxFaulty
}

// secondaryOK: output out's secondary path works (protected router).
func (m *refRouter) secondaryOK(out topology.Port) bool {
	s := m.secondaryOf(out)
	return m.cfg.FaultTolerant && !m.ports[out].secFaulty && !m.ports[s].muxFaulty && !m.ports[s].sa2.faulty
}

// requestPort is the output whose SA stage-2 arbiter q asks, refreshing
// SP/FSP so that a fault that comes mid-packet detours the rest of it.
func (m *refRouter) requestPort(q *refVC) (topology.Port, bool) {
	switch {
	case m.primaryOK(q.r):
		q.fsp = false
		return q.r, true
	case m.secondaryOK(q.r):
		q.fsp, q.sp = true, m.secondaryOf(q.r)
		return q.sp, true
	}
	return topology.Local, false
}

// saReady: q has a downstream VC, a flit, a path and a credit.
func (m *refRouter) saReady(q *refVC) bool {
	if q.g != vc.Active || len(q.flits) == 0 {
		return false
	}
	_, ok := m.requestPort(q)
	return ok && m.ports[q.r].credits[q.outVC] > 0
}

// sa is the separable switch allocator. The winner spends its credit
// now and crosses next cycle.
func (m *refRouter) sa() {
	P := m.cfg.Ports
	winner := make([]int, P)
	asks := make([]bool, P*P) // asks[out*P+p]: input port p's winner asks for output out
	for p := range m.ports {
		ready := make([]bool, m.cfg.VCs)
		for v := range ready {
			ready[v] = m.saReady(&m.ports[p].vcs[v])
		}
		if w, ok := m.sa1(p, ready); ok {
			if out, ok := m.requestPort(&m.ports[p].vcs[w]); ok {
				winner[p], asks[int(out)*P+p] = w, true
			}
		}
	}
	for out := range m.ports {
		if p, ok := m.ports[out].sa2.grant(asks[out*P : (out+1)*P]); ok {
			q := &m.ports[p].vcs[winner[p]]
			m.ports[q.r].credits[q.outVC]--
			m.grants = append(m.grants, grant{inPort: topology.Port(p), inVC: int8(winner[p]), outPort: q.r, secondary: q.fsp})
			q.advanced = true
		}
	}
}

// sa1 is input port p's first SA stage. With the arbiter faulty the
// bypass path names a default winner, rotating every BypassRotatePeriod
// grants; one that cannot send takes a sibling's packet by transfer, at
// the cost of the cycle, and serves it until its tail leaves or a
// rotation's time has passed (Section V-C1).
func (m *refRouter) sa1(p int, ready []bool) (int, bool) {
	port := &m.ports[p]
	if !port.sa1.faulty {
		return port.sa1.grant(ready)
	}
	if !m.cfg.FaultTolerant || port.bypassFaulty {
		return -1, false
	}
	if a := port.adopted; a >= 0 {
		if port.adoptAge++; port.vcs[a].g != vc.Active || port.adoptAge >= m.cfg.BypassRotatePeriod {
			port.adopted = -1
		}
	}
	w := port.adopted
	if w < 0 {
		w = port.winner
		if port.rot++; port.rot >= m.cfg.BypassRotatePeriod {
			port.rot, port.winner = 0, (w+1)%m.cfg.VCs
		}
		if !ready[w] {
			m.transfer(p, w)
			return -1, false
		}
	}
	if !ready[w] {
		return -1, false // the adopted packet waits, for a credit say
	}
	m.counters.SABypassGrants++
	return w, true
}

// transfer moves a sibling's packet, the first that can send if any,
// into an idle default winner dst. The packet keeps its VC (adoption),
// so the upstream's credits stay exact.
func (m *refRouter) transfer(p, dst int) {
	port := &m.ports[p]
	if d := port.vcs[dst]; d.g != vc.Idle || len(d.flits) > 0 {
		return
	}
	cand := -1
	for v := range port.vcs {
		q := &port.vcs[v]
		if q.g != vc.Active || len(q.flits) == 0 {
			continue
		}
		if ready := m.saReady(q); ready || cand < 0 {
			if cand = v; ready {
				break
			}
		}
	}
	if cand >= 0 {
		port.adopted, port.adoptAge = cand, 0
		port.vcs[cand].advanced = true
		m.counters.SATransfers++
	}
}

// freeDown is what VC v (q) may ask for in VA: the free downstream VCs
// of its class, or of the layer routing pinned it to.
func (m *refRouter) freeDown(q *refVC, v int) []bool {
	lo, hi := m.cfg.ClassRange(m.cfg.ClassOf(v))
	if q.dvcLo < q.dvcHi {
		lo, hi = q.dvcLo, q.dvcHi
	}
	free := make([]bool, m.cfg.VCs)
	for d := lo; d < hi; d++ {
		free[d] = !m.ports[q.r].busy[d]
	}
	return free
}

// lender is the first VC of port p but v that is idle or active and
// can lend an intact arbiter set (Section V-B1), or -1.
func (m *refRouter) lender(p, v int) int {
	port := &m.ports[p]
	for i, l := range port.vcs {
		if i != v && !port.va1[i].faulty && !l.vf && (l.g == vc.Idle || l.g == vc.Active) {
			return i
		}
	}
	return -1
}

// va is the separable VC allocator. A VC whose stage-1 arbiter set is
// faulty borrows a lender's through its R2/ID/VF fields, or waits a
// cycle (Scenario 2); a faulty stage-2 arbiter grants none, and its
// askers pick again next cycle (Section V-B3).
func (m *refRouter) va() {
	V, n := m.cfg.VCs, m.cfg.Ports*m.cfg.VCs
	asks := make([]bool, n*n) // asks[(out*V+dvc)*n + p*V+v]
	for p := range m.ports {
		port := &m.ports[p]
		for v := range port.vcs {
			q, arb := &port.vcs[v], v
			if q.g != vc.VCAlloc || port.va1[v].faulty && !m.cfg.FaultTolerant {
				continue
			}
			if port.va1[v].faulty {
				if arb = m.lender(p, v); arb < 0 {
					m.counters.VA1BorrowStalls++
					continue
				}
				l := &port.vcs[arb]
				l.r2, l.id, l.vf = q.r, v, true
				m.counters.VA1Borrows++
			}
			if dvc, ok := port.va1[arb].grant(m.freeDown(q, v)); ok {
				asks[(int(q.r)*V+dvc)*n+p*V+v] = true
			}
			if arb != v {
				l := &port.vcs[arb]
				l.r2, l.id, l.vf = topology.Local, vc.None, false
			}
		}
	}
	for k := 0; k < n; k++ {
		req, out := asks[k*n:(k+1)*n], &m.ports[k/V]
		if w, ok := out.va2[k%V].grant(req); ok {
			q := &m.ports[w/V].vcs[w%V]
			q.g, q.outVC, q.advanced = vc.Active, k%V, true
			out.busy[k%V] = true
		} else if out.va2[k%V].faulty {
			for _, asked := range req {
				if asked {
					m.counters.VA2Retries++
				}
			}
		}
	}
}

// rcUsable: input port p's RC unit or its duplicate works (Section V-A).
func (m *refRouter) rcUsable(p int) bool {
	f := m.ports[p].rcFaulty
	return !f[0] || m.cfg.FaultTolerant && !f[1]
}

// rc routes one head flit per input port a cycle, round-robin. A route
// function may pin a downstream VC layer, detour, or find no path, which
// drops the packet.
func (m *refRouter) rc() {
	V := m.cfg.VCs
	for p := range m.ports {
		port := &m.ports[p]
		for i := 0; i < V && m.rcUsable(p); i++ {
			v := (port.rcScan + i) % V
			q := &port.vcs[v]
			if q.g != vc.Routing { // the head flit is at the front
				continue
			}
			if port.rcFaulty[0] {
				m.counters.RCDuplicateUses++
			}
			port.rcScan = (v + 1) % V
			dst := q.flits[0].Pkt.Dst
			out := m.topo.Route(m.id, dst)
			if m.route != nil {
				fout, lo, hi, ok := m.route(m.id, topology.Port(p), v, dst)
				if !ok {
					q.g = vc.Dropping
					m.dropped = append(m.dropped, q.flits[0].Pkt)
					break
				}
				if m.id != dst && fout != out {
					q.detour = true
					m.counters.Reroutes++
				}
				out, q.dvcLo, q.dvcHi = fout, lo, hi
			}
			q.g, q.r, q.fsp, q.advanced = vc.VCAlloc, out, false, true
			m.requestPort(q) // marks the secondary path if the regular one is broken
			break
		}
	}
}

// classify counts a stall for every VC that holds work it did not
// advance this cycle: on a fault, on credits or on lost arbitration.
func (m *refRouter) classify() {
	for p := range m.ports {
		for v := range m.ports[p].vcs {
			q := &m.ports[p].vcs[v]
			if k, ok := m.stallOf(p, v, q); ok && !q.advanced {
				m.stalls[(p*m.cfg.VCs+v)*obs.NumStallKinds+int(k)]++
			}
			q.advanced = false
		}
	}
}

// stallOf is what VC (p, v) waits on if it holds work; ok is false if
// it holds none this router could advance.
func (m *refRouter) stallOf(p, v int, q *refVC) (obs.StallKind, bool) {
	blocked := q.detour || q.fsp
	switch {
	case q.g == vc.Dropping:
		return obs.StallFaultDrain, len(q.flits) > 0
	case q.g == vc.Routing:
		blocked = !m.rcUsable(p)
	case q.g == vc.VCAlloc:
		if !blocked && !slices.Contains(m.freeDown(q, v), true) {
			return obs.StallCreditStarved, true
		}
	case q.g == vc.Active && len(q.flits) > 0:
		blocked = blocked || !m.primaryOK(q.r) && !m.secondaryOK(q.r)
		if !blocked && m.ports[q.r].credits[q.outVC] == 0 {
			return obs.StallCreditStarved, true
		}
	default:
		return 0, false
	}
	if blocked {
		return obs.StallRouteBlocked, true
	}
	return obs.StallArbLost, true
}

// appendCanonical writes the state in Router.AppendCanonical's format.
func (m *refRouter) appendCanonical(b []byte) []byte {
	put := func(xs ...any) {
		for _, x := range xs {
			switch x := x.(type) {
			case bool:
				b = canon.Bool(b, x)
			case vc.GState:
				b = append(b, byte(x))
			case topology.Port:
				b = canon.Int(b, int(x))
			default:
				b = canon.Int(b, x.(int))
			}
		}
	}
	for _, port := range m.ports {
		for v, q := range port.vcs {
			put(q.g, q.r, q.outVC, q.r2, q.vf, q.id, q.sp, q.fsp, q.dvcLo, q.dvcHi, len(q.flits))
			for _, f := range q.flits {
				b = AppendCanonicalFlit(b, f)
			}
			put(port.busy[v], port.credits[v], port.va1[v].prio, port.va2[v].prio, port.va1[v].faulty, port.va2[v].faulty)
		}
		put(port.sa1.prio, port.winner, port.rot, port.sa1.faulty, port.bypassFaulty, port.sa2.prio, port.sa2.faulty, port.rcFaulty[0])
		if m.cfg.FaultTolerant { // the baseline has no duplicate RC unit, nor secondary paths
			put(port.rcFaulty[1], port.muxFaulty, port.secFaulty)
		} else {
			put(port.muxFaulty)
		}
		put(port.rcScan, port.adopted, port.adoptAge)
	}
	put(len(m.grants))
	for _, g := range m.grants {
		put(g.inPort, int(g.inVC), g.outPort, g.secondary)
	}
	return b
}

// lockstep steps a Router on the feeder and a refRouter on the same
// inputs, observability bound, and fails at the first cycle their
// outputs, canonical states, counters or stall counts differ or the
// router fails CheckOccupancy. Every `every` cycles (0: never) it also
// round-trips the router through a saved state.
type lockstep struct {
	t     testing.TB
	f     *feeder
	spare *Router // the round trip's restore target
	ref   *refRouter
	held  [][]CreditIn
	every int
	stall []*obs.Counter // the router's stall counters, indexed as refRouter.stalls
	saved *RouterState   // the last round trip's state: recycled storage for the next
	flits int            // flits held by the saved states
}

// newLockstep builds the router, the spare and the reference; setup
// installs faults or a route function.
func newLockstep(t testing.TB, cfg router.Config, fed func(p, v int) bool, creditDelay, every int, setup func(*Router)) *lockstep {
	cfg.Obs = obs.New(0)
	build := func() *feeder {
		f := newFeeder(cfg, fed)
		if setup != nil {
			setup(f.r)
		}
		return f
	}
	l := &lockstep{t: t, f: build(), spare: build().r, held: make([][]CreditIn, creditDelay+1), every: every}
	l.ref = newRefRouter(l.f.r)
	for i := range l.ref.stalls {
		k, v, p := obs.StallKind(i%obs.NumStallKinds), i/obs.NumStallKinds%cfg.VCs, i/obs.NumStallKinds/cfg.VCs
		l.stall = append(l.stall, cfg.Obs.Metrics.Counter(obs.Key{Kind: k.Kind(), Router: int32(l.f.r.ID), Port: int8(p), VC: int8(v)}))
	}
	return l
}

// step runs one cycle, the feeder offering flits when offer is set.
func (l *lockstep) step(offer bool) {
	r, m, c := l.f.r, l.ref, l.f.cycle
	if offer {
		l.f.offer()
	}
	m.tick(r.inFlits, r.inCredits) // before Tick empties the latches
	r.Tick(c)
	l.f.cycle++
	sameFlit := func(a, b router.OutFlit) bool {
		return a.Out == b.Out && a.DownVC == b.DownVC &&
			bytes.Equal(AppendCanonicalFlit(nil, a.F), AppendCanonicalFlit(nil, b.F))
	}
	if !slices.EqualFunc(r.outFlits, m.outFlits, sameFlit) {
		l.t.Fatalf("cycle %d: out flits %v, reference %v", c, r.outFlits, m.outFlits)
	}
	if !slices.Equal(r.outCredits, m.outCredits) {
		l.t.Fatalf("cycle %d: out credits %v, reference %v", c, r.outCredits, m.outCredits)
	}
	samePkt := func(a, b *flit.Packet) bool { return bytes.Equal(canon.Packet(nil, a), canon.Packet(nil, b)) }
	if got := r.TakeDropped(); !slices.EqualFunc(got, m.dropped, samePkt) {
		l.t.Fatalf("cycle %d: dropped %d packets, reference %d", c, len(got), len(m.dropped))
	}
	l.f.collectHeld(l.held)
	l.compare(c, "")
	if l.every > 0 && int(c)%l.every == 0 {
		l.roundTrip(c)
	}
}

func (l *lockstep) compare(c sim.Cycle, after string) {
	r, m := l.f.r, l.ref
	if !bytes.Equal(r.AppendCanonical(nil), m.appendCanonical(nil)) {
		l.t.Fatalf("cycle %d%s: canonical state differs from the reference's", c, after)
	}
	if r.Counters != m.counters {
		l.t.Fatalf("cycle %d%s: counters %+v, reference %+v", c, after, r.Counters, m.counters)
	}
	V, K := r.cfg.VCs, obs.NumStallKinds
	for i, ctr := range l.stall {
		if n := ctr.Value(); n != m.stalls[i] {
			l.t.Fatalf("cycle %d%s: port %d VC %d: %d %v stalls, reference %d", c, after, i/K/V, i/K%V, n, obs.StallKind(i%K), m.stalls[i])
		}
	}
	if err := r.CheckOccupancy(); err != nil {
		l.t.Fatalf("cycle %d%s: %v", c, after, err)
	}
}

// roundTrip restores the router's saved state into the spare twice, as
// the spare is (an older state) and after flipping its every fault
// site, so a restore that keeps an old field or fault bit, or consumes
// the state, shows; stepping goes on from the spare. A save into
// recycled storage must equal the fresh one.
func (l *lockstep) roundTrip(c sim.Cycle) {
	r, twin := l.f.r, l.spare
	st := r.SaveState(cloneWithPacket)
	if l.saved != nil {
		if into := r.SaveStateInto(l.saved, cloneWithPacket); into != l.saved || !sameState(into, st) {
			l.t.Fatalf("cycle %d: a save into recycled storage differs from a fresh one", c)
		}
	}
	l.f.r = twin
	twin.RestoreState(st, cloneWithPacket)
	l.compare(c, ", restored")
	flipAll(twin)
	twin.RestoreState(st, cloneWithPacket)
	l.compare(c, ", restored into flipped faults")
	twin.inCredits, r.inCredits = append(twin.inCredits, r.inCredits...), r.inCredits[:0]
	l.spare, l.saved, l.flits = r, st, l.flits+len(st.flits)
}

// flipFault toggles the router-internal fault site kind selects at the
// port (and VC) site selects. The duplicate RC unit and the secondary
// crossbar path exist only in the protected router.
func flipFault(r *Router, kind, site byte) {
	cfg := r.Config()
	p := topology.Port(int(site) % cfg.Ports)
	v := int(site) / cfg.Ports % cfg.VCs
	switch k := kind % 9; {
	case k == 0:
		r.SetRCFault(p, 0, !r.RCFault(p, 0))
	case k == 1 && cfg.FaultTolerant:
		r.SetRCFault(p, 1, !r.RCFault(p, 1))
	case k == 2:
		r.SetVA1Fault(p, v, !r.VA1Fault(p, v))
	case k == 3:
		r.SetVA2Fault(p, v, !r.VA2Fault(p, v))
	case k == 4:
		r.SetSA1Fault(p, !r.SA1Fault(p))
	case k == 5:
		r.SetSA1BypassFault(p, !r.SA1BypassFault(p))
	case k == 6:
		r.SetSA2Fault(p, !r.SA2Fault(p))
	case k == 7:
		r.SetXBFault(p, !r.XBFault(p))
	case k == 8 && cfg.FaultTolerant:
		r.SetXBSecondaryFault(p, !r.XBSecondaryFault(p))
	}
}

// flipAll toggles every fault site of r once: the port sites of each
// kind, and the VC sites of the two VA kinds.
func flipAll(r *Router) {
	cfg := r.Config()
	for kind := byte(0); kind < 9; kind++ {
		for site := 0; site < cfg.Ports*cfg.VCs; site++ {
			if site < cfg.Ports || kind == 2 || kind == 3 {
				flipFault(r, kind, byte(site))
			}
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

// FuzzTickMatchesReference steps a router in lockstep with refRouter,
// round-tripping it through a saved state every 7 cycles, and flips the
// same faults in both mid-packet. The header picks the VCs (1-8) and
// classes (1-2), the buffer depth and bypass rotation period, the credit
// delay, the router design, which VCs are fed and a route function with
// downstream VC layers (layeredRoute); each later three bytes run some
// cycles and then toggle one fault site (flipFault).
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
		cfg.FaultTolerant = data[2]&8 == 0
		fed := func(p, v int) bool { return data[3] == 0 || data[3]>>uint((p*cfg.VCs+v)%8)&1 != 0 }
		l := newLockstep(t, cfg, fed, int(data[2]%8), 7, func(r *Router) {
			if data[4] != 0 {
				r.SetRouteFn(layeredRoute(topology.NewMesh(3, 3), cfg.VCs, data[4]))
			}
		})
		for ev := data[5:]; len(ev) >= 3; ev = ev[3:] {
			for k := int(ev[0] % 64); k > 0; k-- {
				l.step(true)
			}
			flipFault(l.f.r, ev[1], ev[2])
			l.ref.syncFaults(l.f.r)
		}
		for k := 0; k < 200; k++ {
			l.step(true)
		}
	})
}

// stallCase is one lockstep scenario: the VCs fed, the faults and route
// function setup installs, how many cycles every downstream credit is
// held back, and the stall classes the scenario must produce at least
// once (none at all if it names none).
type stallCase struct {
	name        string
	fed         func(p, v int) bool
	setup       func(r *Router)
	creditDelay int
	kinds       []obs.StallKind
}

func stallCases() []stallCase {
	all := func(p, v int) bool { return true }
	none := func(p, v int) bool { return false }
	return []stallCase{
		{name: "loaded", fed: all, kinds: []obs.StallKind{obs.StallArbLost}},
		{name: "credit-starved", fed: all, creditDelay: 6,
			kinds: []obs.StallKind{obs.StallArbLost, obs.StallCreditStarved}},
		{name: "faulted", fed: all,
			setup: func(r *Router) {
				r.SetSA1Fault(topology.East, true)          // bypass path, transfers
				r.SetVA1Fault(topology.North, 0, true)      // arbiter borrowing
				r.SetVA2Fault(topology.South, 1, true)      // stage-2 retries
				r.SetRCFault(topology.West, 0, true)        // duplicate RC
				r.SetRCFault(topology.South, 0, true)       // both copies: routing
				r.SetRCFault(topology.South, 1, true)       // itself is blocked
				r.SetXBFault(topology.West, true)           // secondary crossbar path
				r.SetXBFault(topology.North, true)          // no path at all to
				r.SetXBSecondaryFault(topology.North, true) // this output
			},
			kinds: []obs.StallKind{obs.StallArbLost, obs.StallRouteBlocked}},
		{name: "dead-link", fed: all,
			// Table routing around a dead East link: packets for the east
			// neighbour detour through North, and the south neighbour is
			// cut off, so its packets are dropped and drained.
			setup: func(r *Router) {
				mesh := topology.NewMesh(3, 3)
				east, _ := mesh.Neighbor(r.ID, topology.East)
				south, _ := mesh.Neighbor(r.ID, topology.South)
				r.SetRouteFn(func(cur int, in topology.Port, vcIdx, dst int) (topology.Port, int, int, bool) {
					switch dst {
					case south:
						return topology.Local, 0, 0, false
					case east:
						return topology.North, 0, 0, true
					}
					return mesh.Route(cur, dst), 0, 0, true
				})
			},
			kinds: []obs.StallKind{obs.StallArbLost, obs.StallRouteBlocked, obs.StallFaultDrain}},
		{name: "idle", fed: none},
		{name: "idle-bypass", fed: none,
			setup: func(r *Router) { r.SetSA1Fault(topology.East, true) }},
	}
}

// TestStallScanMatchesReference steps the stall cases' routers in
// lockstep with refRouter through 3000 cycles of steady load.
func TestStallScanMatchesReference(t *testing.T) { testStallCases(t, 3000, 3000, 0) }

// TestRouterStateMatchesReference fills and drains the stall cases'
// routers in lockstep with refRouter, round-tripping them every 7 cycles.
func TestRouterStateMatchesReference(t *testing.T) { testStallCases(t, 720, 600, 7) }

// testStallCases steps each stall case, offering flits for the first
// fill cycles, and checks its stall classes and that round trips saved
// some buffered flit.
func testStallCases(t *testing.T, cycles, fill, every int) {
	for _, tc := range stallCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := router.DefaultConfig()
			cfg.FaultTolerant = true
			l := newLockstep(t, cfg, tc.fed, tc.creditDelay, every, tc.setup)
			for c := 0; c < cycles; c++ {
				l.step(c < fill)
			}
			var seen [obs.NumStallKinds]uint64
			for i, n := range l.ref.stalls {
				seen[i%obs.NumStallKinds] += n
			}
			for k, n := range seen {
				if wanted := slices.Contains(tc.kinds, obs.StallKind(k)); wanted && n == 0 || len(tc.kinds) == 0 && n != 0 {
					t.Errorf("scenario produced %d %v stalls", n, obs.StallKind(k))
				}
			}
			if every > 0 && len(tc.kinds) > 0 && l.flits == 0 {
				t.Error("no saved state held a buffered flit; case exercises nothing")
			}
		})
	}
}

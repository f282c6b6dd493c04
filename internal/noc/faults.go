package noc

import (
	"fmt"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// Network-level faults (dead links and dead routers) and the end-to-end
// retransmission layer that recovers from them. All the state mutated
// here lives in the serial phases of Step (hooks, offer, local commit), so
// recovery is bit-exact for every Workers setting.

// SetLinkFault kills (value true) or repairs (value false) the
// inter-router link leaving router id through port p. A dead link is
// bidirectional — the fault is mirrored on the neighbor's facing port —
// and takes effect at packet granularity: a head flit meeting the dead
// link is discarded (with the rest of its packet), while a packet whose
// head already crossed completes gracefully. The sender's flow control
// is unwound locally for discarded flits, so no VC or credit leaks.
// Routing tables are rebuilt immediately; call this from a cycle hook
// (or before the run) so the change lands in a serial phase.
func (n *Network) SetLinkFault(id int, p topology.Port, value bool) error {
	w, h := n.topo.Dims()
	if id < 0 || id >= n.topo.Nodes() {
		return fmt.Errorf("noc: router %d outside %dx%d %s", id, w, h, n.topo.Kind())
	}
	if p < topology.North || p > topology.West {
		return fmt.Errorf("noc: link fault port must be a network direction, got %v", p)
	}
	nb := n.neighbor(id, p)
	if nb < 0 {
		return fmt.Errorf("noc: router %d has no %v link in a %dx%d %s", id, p, w, h, n.topo.Kind())
	}
	if n.linkDead[id][p] == value {
		return nil // already so: nothing to rebuild
	}
	if err := n.faultRoutable(value); err != nil {
		return err
	}
	n.linkDead[id][p] = value
	n.linkDead[nb][p.Opposite()] = value
	n.rebuildRoutes()
	return nil
}

// SetRouterFault kills (value true) or repairs (value false) router id
// entirely: all of its network links behave dead in both directions,
// its NI neither injects nor ejects, and no route transits it.
func (n *Network) SetRouterFault(id int, value bool) error {
	w, h := n.topo.Dims()
	if id < 0 || id >= n.topo.Nodes() {
		return fmt.Errorf("noc: router %d outside %dx%d %s", id, w, h, n.topo.Kind())
	}
	if n.routerDead[id] == value {
		return nil // already so: nothing to rebuild
	}
	if err := n.faultRoutable(value); err != nil {
		return err
	}
	n.routerDead[id] = value
	n.rebuildRoutes()
	return nil
}

// faultRoutable reports, before any state is touched, why a kill cannot
// be routed around: the two-layer tables need numLayers VCs in every
// message class. Repairs always pass — faults already present were
// checked when they were set.
func (n *Network) faultRoutable(kill bool) error {
	if !kill {
		return nil
	}
	for cls := 0; cls < n.cfg.Router.Classes; cls++ {
		lo, hi := n.cfg.Router.ClassRange(cls)
		if hi-lo < numLayers {
			return fmt.Errorf("noc: fault-aware routing needs >= %d VCs per message class (class %d has %d): raise VCs or lower Classes",
				numLayers, cls, hi-lo)
		}
	}
	return nil
}

// LinkFaulty reports whether the link leaving router id through port p
// is dead — explicitly, or because either endpoint router is dead.
func (n *Network) LinkFaulty(id int, p topology.Port) bool {
	if n.linkDead[id][p] || n.routerDead[id] {
		return true
	}
	nb := n.neighbor(id, p)
	return nb >= 0 && n.routerDead[nb]
}

// RouterFaulty reports whether router id is marked dead.
func (n *Network) RouterFaulty(id int) bool { return n.routerDead[id] }

// Reachable reports whether a packet injected at src can currently reach
// dst. With no network faults every (src, dst) pair is reachable.
func (n *Network) Reachable(src, dst int) bool {
	if n.routes == nil {
		return true
	}
	if n.routerDead[src] || n.routerDead[dst] {
		return src == dst && !n.routerDead[src]
	}
	return src == dst || n.routes.reachable(src, dst)
}

// anyNetworkFault reports whether any link or router fault is set.
func (n *Network) anyNetworkFault() bool {
	for _, d := range n.routerDead {
		if d {
			return true
		}
	}
	for _, row := range n.linkDead {
		for _, d := range row {
			if d {
				return true
			}
		}
	}
	return false
}

// rebuildRoutes recomputes the fault-aware routing tables after a fault
// change. With no network faults the tables are dropped and every router
// reverts to its baseline route computation (built-in XY on a mesh or
// cmesh, the dateline torusRoute on a torus), keeping the fault-free
// simulation bit-identical to the pre-fault-model baseline.
func (n *Network) rebuildRoutes() {
	n.routes = nil
	route := n.baseRoute
	if n.anyNetworkFault() {
		n.routes = n.routeBuilder.build(n.topo, n.linkDead, n.routerDead)
		route = n.routeFor
	}
	for _, r := range n.routers {
		r.SetRouteFn(route)
	}
}

// routeFor is the core.RouteFn installed on every router while network
// faults are present (rebuildRoutes installs it only together with a
// live table): a table lookup keyed by (node, input port, layer),
// returning the output port and the downstream VC layer range.
func (n *Network) routeFor(cur int, in topology.Port, vcIdx int, dst int) (topology.Port, int, int, bool) {
	cfg := n.cfg.Router
	lo, hi := cfg.ClassRange(cfg.ClassOf(vcIdx))
	if cur == dst {
		return topology.Local, lo, hi, true
	}
	half := (hi - lo) / numLayers
	layer := 0
	if in != topology.Local && vcIdx >= lo+half {
		layer = 1
	}
	e := n.routes.lookup(dst, cur, in, layer)
	if e.out < 0 {
		return topology.Local, 0, 0, false
	}
	if e.layer == 0 {
		return topology.Port(e.out), lo, lo + half, true
	}
	return topology.Port(e.out), lo + half, hi, true
}

// discardAtLink decides whether the flit router id staged through network
// port of.Out dies at that link, and if so discards it: a head meeting a
// dead link takes its whole packet with it (recorded as one drop), while
// a packet whose head crossed while the link was alive — midFlight —
// completes gracefully, so the fault takes effect at packet granularity.
// Each discarded flit synthesizes the credit the neighbour would have
// returned, into the sender's own latch, so the sender's flow control
// (and the network-wide credit-conservation invariant) stays exact.
// Everything read and written here is indexed by the sender, which is why
// this runs from the serial local commit and not from the receiver's
// pull; credits are applied commutatively, so their order in the latch
// is free.
//
//noc:commit-only
func (n *Network) discardAtLink(id int, of router.OutFlit, c sim.Cycle) bool {
	link := id*n.ports + int(of.Out)
	bit := uint64(1) << uint(of.DownVC)
	switch {
	case n.linkDrop[link]&bit != 0:
		// Rest of a packet whose head was already discarded at this
		// link: keep dropping (even if the link was repaired mid-packet —
		// the neighbour never saw the head).
		if of.F.Kind.IsTail() {
			n.linkDrop[link] &^= bit
		}
	case n.routes != nil && n.midFlight[link]&bit == 0 && n.LinkFaulty(id, of.Out):
		// routes is nil exactly while no link or router is dead, which
		// keeps the fault-free commit at one load and one pointer test
		// per flit.
		if of.F.Kind.IsHead() {
			n.stats.RecordDrop(of.F.Pkt)
			if on := n.obsNodes[id]; on != nil {
				on.LinkDrop(c, int(of.Out), of.F.Pkt.Dst)
			}
		}
		if !of.F.Kind.IsTail() {
			n.linkDrop[link] |= bit
		}
	default:
		return false
	}
	n.inCredits[id] = append(n.inCredits[id],
		credit{port: uint8(of.Out), vc: uint8(of.DownVC), free: of.F.Kind.IsTail()})
	return true
}

// dropIfUnreachable drops a freshly offered packet whose destination no
// surviving path reaches (or whose source node is dead), recording the
// drop, and reports whether it did.
//
//noc:commit-only
func (n *Network) dropIfUnreachable(node int, p *flit.Packet, c sim.Cycle) bool {
	if n.routes == nil {
		return false
	}
	if node != p.Dst && !n.routerDead[node] && !n.routerDead[p.Dst] && n.routes.reachable(node, p.Dst) {
		return false
	}
	if node == p.Dst && !n.routerDead[node] {
		return false // self-delivery at a live node always works
	}
	n.stats.RecordDrop(p)
	if on := n.obsNodes[node]; on != nil {
		on.DropUnreachable(c, p.Dst)
	}
	return true
}

// trackRetx records a freshly offered packet in its source's
// retransmission buffer, if retransmission is enabled and the buffer has
// room (packets offered past the bound travel unprotected).
//
//noc:commit-only
func (n *Network) trackRetx(node int, p *flit.Packet, c sim.Cycle) {
	if n.retxCfg.Timeout == 0 || len(n.retx[node]) >= n.retxCfg.Buffer {
		return
	}
	n.retx[node] = append(n.retx[node], retxEntry{
		seq: p.Seq, dst: p.Dst, class: p.Class, size: p.Size,
		createdAt: c,
		deadline:  c + n.retxCfg.Timeout,
		interval:  n.retxCfg.Timeout,
	})
}

// retxScan fires expired retransmission timers. It runs in Step's serial
// pre-phase in canonical node order, so retransmissions are bit-exact at
// every Workers setting.
//
//noc:commit-only
func (n *Network) retxScan(c sim.Cycle) {
	if n.retxCfg.Timeout == 0 {
		return
	}
	for node := range n.retx {
		entries := n.retx[node]
		if len(entries) == 0 {
			continue
		}
		kept := entries[:0]
		for _, e := range entries {
			if c < e.deadline {
				kept = append(kept, e)
				continue
			}
			if e.retries >= n.retxCfg.MaxRetries {
				// Abandon: every copy was already recorded as dropped
				// when it died, so accounting stays balanced.
				continue
			}
			e.retries++
			e.interval *= sim.Cycle(n.retxCfg.Backoff)
			e.deadline = c + e.interval
			n.retransmit(node, e, c)
			kept = append(kept, e)
		}
		n.retx[node] = kept
	}
}

// retransmit clones and re-offers an unacknowledged packet. The clone
// keeps the original's sequence number (for duplicate suppression and
// release) and CreatedAt stamp (so measured latency includes the loss),
// under a fresh packet ID.
//
//noc:commit-only
func (n *Network) retransmit(node int, e retxEntry, c sim.Cycle) {
	p := &flit.Packet{
		ID: n.nextID, Src: node, Dst: e.dst, Class: e.class, Size: e.size,
		CreatedAt: e.createdAt, Seq: e.seq,
	}
	n.nextID++
	n.stats.RecordCreation(p)
	n.stats.RecordRetransmit(p)
	if on := n.obsNodes[node]; on != nil {
		on.NIRetransmit(c, e.dst, e.retries)
	}
	if n.dropIfUnreachable(node, p, c) {
		return
	}
	n.nis[node].Offer(p)
}

// releaseRetx removes the retransmission entry for (src, seq) after the
// sink saw its first delivery.
//
//noc:commit-only
func (n *Network) releaseRetx(src int, seq uint64) {
	entries := n.retx[src]
	for i := range entries {
		if entries[i].seq == seq {
			n.retx[src] = append(entries[:i], entries[i+1:]...)
			return
		}
	}
}

// isDuplicate reports whether the sink at node has already delivered the
// packet (same source, same sequence number), marking it delivered
// otherwise. The per-source window compacts as its floor advances, so
// memory tracks only out-of-order deliveries.
//
//noc:commit-only
func (n *Network) isDuplicate(node int, p *flit.Packet) bool {
	m := n.delivered[node]
	if m == nil {
		m = make(map[int]*seqWindow)
		n.delivered[node] = m
	}
	w := m[p.Src]
	if w == nil {
		w = &seqWindow{seen: make(map[uint64]bool)}
		m[p.Src] = w
	}
	if p.Seq < w.floor || w.seen[p.Seq] {
		return true
	}
	w.seen[p.Seq] = true
	for w.seen[w.floor] {
		delete(w.seen, w.floor)
		w.floor++
	}
	return false
}

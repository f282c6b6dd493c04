package noc

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// refNet is the network level stated as plainly as it can be, the oracle
// Network is stepped against (lockstep). Each node has its links'
// one-cycle registers, each a queue of flits and one of credits; a bool
// per link and VC for a packet whose head crossed the link and one for a
// packet a dead link is discarding; an NI of class queues, per-VC flit
// queues, credits and busy flags; retransmission entries and their
// timers; the set of packets delivered to it; and, for the packets it
// sent, the count of each one's copies in flight and the destination of
// each that got an entry. There is nothing for
// the network's masks, credit runs, inbound words, records or recycled
// storage. The routers are core.Routers, which core's refRouter covers.
// From the network it shadows refNet takes the configuration, a traffic
// source of its own and, after every fault change, the route function
// and Reachable (routing_ref_test.go holds routing to its own oracle).
type refNet struct {
	cfg       Config
	retx      RetxConfig // cfg.Retx, its zero knobs resolved
	topo      topology.Topology
	traffic   Traffic
	stats     *stats.Collector
	reachable func(src, dst int) bool
	cycle     sim.Cycle
	nextID    uint64
	nodes     []refNode
}

type refNode struct {
	r    *core.Router
	obs  *obs.NodeObs
	dead bool
	// By port: the links leaving the node dead, at both ends; what the
	// links into it carry this cycle; and, by downstream VC, a packet
	// whose head crossed the link out, and one whose head it discarded,
	// each until its tail.
	linkDead  []bool
	in        []refLink
	mid, drop [][]bool

	// The NI.
	queues  [][]*flit.Packet // by class: packets waiting for a VC
	sending [][]*flit.Flit   // by VC: the rest of the packet sent on it
	credits []int
	busy    []bool
	next    int             // the VC served first
	back    []router.Credit // what the router returned over the local link last cycle

	seqNext   uint64
	retx      []retxEntry        // the entries whose timer runs, their copies not counted
	delivered map[[2]uint64]bool // (source, sequence number)
	// By sequence number, of the packets this node sent: the copies in
	// flight, from the NI's queue until delivered or dropped, and the
	// destination of each packet that got a retransmission entry.
	copies    map[uint64]int
	protected map[uint64]int
}

// refLink is what crosses one link in one cycle.
type refLink struct {
	flits   []core.FlitIn
	credits []core.CreditIn
}

// newRefNet builds the reference of a network of cfg, whose router
// configuration carries an observer of the reference's own.
func newRefNet(cfg Config, src Traffic) *refNet {
	topo, err := topology.New(cfg.Topo, cfg.Width, cfg.Height)
	if err != nil {
		panic(err)
	}
	rc := cfg.Router
	m := &refNet{cfg: cfg, retx: cfg.Retx.withDefaults(), topo: topo, traffic: src, stats: stats.NewCollector(cfg.Warmup)}
	for id := range topo.Nodes() {
		r, err := core.New(id, topo, rc)
		if err != nil {
			panic(err)
		}
		nd := refNode{r: r, obs: obs.BindNode(rc.Obs, id, rc.Ports, rc.VCs), linkDead: make([]bool, rc.Ports), in: make([]refLink, rc.Ports),
			queues: make([][]*flit.Packet, rc.Classes), sending: make([][]*flit.Flit, rc.VCs), busy: make([]bool, rc.VCs), delivered: map[[2]uint64]bool{},
			copies: map[uint64]int{}, protected: map[uint64]int{}}
		for range rc.Ports {
			nd.mid, nd.drop = append(nd.mid, make([]bool, rc.VCs)), append(nd.drop, make([]bool, rc.VCs))
		}
		for range rc.VCs {
			nd.credits = append(nd.credits, rc.Depth)
		}
		m.nodes = append(m.nodes, nd)
	}
	return m
}

// far is the node at the other end of id's link out, and its link in.
func (m *refNet) far(id int, out topology.Port) (*refNode, *refLink) {
	u, ok := m.topo.Neighbor(id, out)
	if !ok {
		panic(fmt.Sprintf("refNet: router %d sent through edge port %v", id, out))
	}
	return &m.nodes[u], &m.nodes[u].in[out.Opposite()]
}

// step is one cycle: the retransmission timers and the traffic source,
// then every node's NI and router, then what each router sent, node by
// node, and last what crossed each link, into the router at its far end.
func (m *refNet) step() {
	c := m.cycle
	m.retxScan(c)
	for id := range m.nodes {
		for _, p := range m.traffic.Offered(id, c) {
			m.offer(id, p, c)
		}
	}
	for id := range m.nodes {
		m.tickNI(id, c)
		m.nodes[id].r.Tick(c)
	}
	for id := range m.nodes {
		m.commit(id, c)
	}
	for _, nd := range m.nodes {
		for p, l := range nd.in {
			for _, f := range l.flits {
				nd.r.AcceptFlit(router.InFlit{In: f.In, VC: int(f.VC), F: f.F})
			}
			for _, cr := range l.credits {
				nd.r.AcceptCredit(cr)
			}
			nd.in[p] = refLink{}
		}
	}
	m.cycle++
}

// offer numbers a new packet and queues it at node id's NI, or drops it
// if its destination cannot be reached. With retransmission on, a packet
// gets an entry while its source has room for one.
func (m *refNet) offer(id int, p *flit.Packet, c sim.Cycle) {
	nd := &m.nodes[id]
	p.ID, p.CreatedAt, p.Src, p.Seq = m.nextID, c, id, nd.seqNext
	m.nextID++
	nd.seqNext++
	m.stats.RecordCreation(p)
	nd.obs.NIOffer(c, p.Dst)
	if m.unreachable(id, p, c) {
		return
	}
	if m.retx.Timeout > 0 && len(nd.retx) < m.retx.Buffer {
		nd.retx = append(nd.retx, retxEntry{seq: p.Seq, dst: p.Dst, class: p.Class, size: p.Size,
			createdAt: c, deadline: c + m.retx.Timeout, interval: m.retx.Timeout})
		nd.protected[p.Seq] = p.Dst
	}
	nd.enqueue(p)
}

// enqueue queues a copy of a packet node nd sent, one more in flight.
func (nd *refNode) enqueue(p *flit.Packet) {
	cls := min(int(p.Class), len(nd.queues)-1)
	nd.queues[cls] = append(nd.queues[cls], p)
	nd.copies[p.Seq]++
}

// gone counts a copy of p out of flight, delivered or dropped.
func (m *refNet) gone(p *flit.Packet) {
	src := &m.nodes[p.Src]
	if src.copies[p.Seq]--; src.copies[p.Seq] == 0 {
		delete(src.copies, p.Seq)
	}
}

// unreachable drops p, offered at node id, if no path reaches its
// destination.
func (m *refNet) unreachable(id int, p *flit.Packet, c sim.Cycle) bool {
	if m.reachable(id, p.Dst) {
		return false
	}
	m.stats.RecordDrop(p)
	m.nodes[id].obs.DropUnreachable(c, p.Dst)
	return true
}

// retxScan fires the timers that are due, in node order: a packet is
// sent again under a new ID with its timeout doubled, or given up after
// MaxRetries.
func (m *refNet) retxScan(c sim.Cycle) {
	for id := range m.nodes {
		nd := &m.nodes[id]
		var kept []retxEntry
		for _, e := range nd.retx {
			if c >= e.deadline {
				if e.retries == m.retx.MaxRetries {
					continue
				}
				e.retries++
				e.interval *= 2
				e.deadline = c + e.interval
				p := &flit.Packet{ID: m.nextID, Src: id, Dst: e.dst, Class: e.class, Size: e.size, CreatedAt: e.createdAt, Seq: e.seq}
				m.nextID++
				m.stats.RecordCreation(p)
				m.stats.RecordRetransmit(p)
				nd.obs.NIRetransmit(c, e.dst, e.retries)
				if !m.unreachable(id, p, c) {
					nd.enqueue(p)
				}
			}
			kept = append(kept, e)
		}
		nd.retx = kept
	}
}

// tickNI takes the credits the router returned, gives the head packet
// of each class queue the first free VC of its class, and sends one
// flit, from the first VC at or after next that has a flit and a credit.
func (m *refNet) tickNI(id int, c sim.Cycle) {
	nd, rc := &m.nodes[id], m.cfg.Router
	for _, cr := range nd.back {
		nd.credits[cr.VC]++
		nd.busy[cr.VC] = nd.busy[cr.VC] && !cr.VCFree
	}
	nd.back = nil
	queued := 0
	for cls, q := range nd.queues {
		lo, hi := rc.ClassRange(cls)
		if v := lo + slices.Index(nd.busy[lo:hi], false); v >= lo && len(q) > 0 {
			q[0].InjectedAt = c
			nd.busy[v], nd.sending[v], nd.queues[cls] = true, flit.Segment(q[0]), q[1:]
		}
		queued += len(nd.queues[cls])
	}
	nd.obs.NIQueueDepth(queued)
	for i := range rc.VCs {
		if v := (nd.next + i) % rc.VCs; len(nd.sending[v]) > 0 && nd.credits[v] > 0 {
			nd.r.AcceptFlit(router.InFlit{In: topology.Local, VC: v, F: nd.sending[v][0]})
			nd.obs.NIFlitSent()
			nd.credits[v]--
			nd.sending[v] = nd.sending[v][1:]
			nd.next = (v + 1) % rc.VCs
			break
		}
	}
}

// commit takes what router id sent this cycle: packets routing found no
// path for, flits to its NI, flits that cross a link or die at a dead
// one, and credits.
func (m *refNet) commit(id int, c sim.Cycle) {
	nd := &m.nodes[id]
	for _, p := range nd.r.TakeDropped() {
		m.stats.RecordDrop(p)
		nd.obs.DropUnreachable(c, p.Dst)
		m.gone(p)
	}
	for _, of := range nd.r.TakeOutFlits() {
		f, v := of.F, int(of.DownVC)
		head, tail := f.Kind.IsHead(), f.Kind.IsTail()
		// The credit for a flit that crosses no link returns at once.
		credit := core.CreditIn{Out: of.Out, VC: of.DownVC, VCFree: tail}
		if of.Out == topology.Local {
			nd.obs.LinkFlit(int(of.Out), v)
			if !nd.dead {
				m.eject(id, f, c)
			} else if tail { // a dead node ejects nothing
				m.stats.RecordDrop(f.Pkt)
				nd.obs.DropUnreachable(c, f.Pkt.Dst)
				m.gone(f.Pkt)
			}
			nd.r.AcceptCredit(credit)
			continue
		}
		u, l := m.far(id, of.Out)
		mid, drop := &nd.mid[of.Out][v], &nd.drop[of.Out][v]
		switch {
		case *drop: // the rest of a packet whose head the link discarded
			*drop = !tail
		case !*mid && (nd.linkDead[of.Out] || nd.dead || u.dead): // a packet meets a dead link
			if head {
				m.stats.RecordDrop(f.Pkt)
				nd.obs.LinkDrop(c, int(of.Out), f.Pkt.Dst)
				m.gone(f.Pkt)
			}
			*drop = !tail
		default:
			*mid = (*mid || head) && !tail
			nd.obs.LinkFlit(int(of.Out), v)
			l.flits = append(l.flits, core.FlitIn{F: f, In: of.Out.Opposite(), VC: of.DownVC})
			continue
		}
		nd.r.AcceptCredit(credit)
	}
	for _, cr := range nd.r.TakeOutCredits() {
		if cr.In == topology.Local {
			nd.back = append(nd.back, cr)
			continue
		}
		_, l := m.far(id, cr.In)
		l.credits = append(l.credits, core.CreditIn{Out: cr.In.Opposite(), VC: cr.VC, VCFree: cr.VCFree})
	}
}

// eject takes a flit at node id's NI. A tail delivers its packet, once:
// with retransmission on, a copy of a packet delivered before is only
// counted, and the first delivery retires the source's entry.
func (m *refNet) eject(id int, f *flit.Flit, c sim.Cycle) {
	nd, p := &m.nodes[id], f.Pkt
	if !f.Kind.IsTail() {
		return
	}
	p.EjectedAt = c
	m.gone(p)
	if m.retx.Timeout > 0 {
		key := [2]uint64{uint64(p.Src), p.Seq}
		if nd.delivered[key] {
			m.stats.RecordDuplicate(p)
			nd.obs.NIDupSuppressed(c, p.Src)
			return
		}
		nd.delivered[key] = true
		src := &m.nodes[p.Src]
		src.retx = slices.DeleteFunc(src.retx, func(e retxEntry) bool { return e.seq == p.Seq })
	}
	m.stats.RecordEjection(p)
	nd.obs.NIEject(c, p.Latency())
	for _, rp := range m.traffic.OnEject(p, c) {
		m.offer(id, rp, c)
	}
}

// lockstep steps a Network and its refNet together and fails at the
// first cycle they differ. Every `every` cycles, and when asked, it
// round-trips the network into a spare and steps on from the spare.
type lockstep struct {
	t         testing.TB
	n, spare  *Network
	ref       *refNet
	got, want *ejections
	saved     *Snapshot // the last round trip's, storage for the next
	every     sim.Cycle
}

// ejections is a traffic source that keeps what it is told was delivered.
type ejections struct {
	Traffic
	pkts []flit.Packet
}

func (e *ejections) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	e.pkts = append(e.pkts, *p)
	return e.Traffic.OnEject(p, c)
}

// newLockstep builds the network, the spare and the reference of cfg,
// the reference fed by a uniform bimodal source of the given rate and
// seed, the network by another (the spare shares the network's).
func newLockstep(t testing.TB, cfg Config, rate float64, seed byte, every sim.Cycle) *lockstep {
	nodes := cfg.Width * cfg.Height
	src := func() *ejections {
		return &ejections{Traffic: traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), uint64(seed)+1)}
	}
	l := &lockstep{t: t, got: src(), want: src(), every: every}
	cfg.Router.Obs = obs.New(0)
	build := func() *Network {
		n, err := New(cfg, l.got)
		if err != nil {
			t.Skipf("%dx%d %s %+v: %v", cfg.Width, cfg.Height, cfg.Topo, cfg.Router, err)
		}
		t.Cleanup(n.Close)
		return n
	}
	l.n, l.spare = build(), build()
	cfg.Router.Obs = obs.New(0)
	l.ref = newRefNet(cfg, l.want)
	l.shadow()
	return l
}

// shadow hands the reference the network's route function and
// Reachable, as its fault sets now stand.
func (l *lockstep) shadow() {
	route := l.n.baseRoute
	if l.n.routes != nil {
		route = l.n.routeFor
	}
	for _, nd := range l.ref.nodes {
		nd.r.SetRouteFn(route)
	}
	l.ref.reachable = l.n.Reachable
}

func (l *lockstep) run(cycles int) {
	for range cycles {
		l.step()
	}
}

// event applies one event to both: run 1-64 cycles (an odd b stops
// inside a dead-link discard), break a router-internal site, or kill or
// repair a link or a router.
func (l *lockstep) event(kind, a, b byte) {
	n, id := l.n, int(a)%len(l.ref.nodes)
	nd := &l.ref.nodes[id]
	switch kind {
	case 0:
		for k := 1 + int(a%64); k > 0 && !(b&1 != 0 && l.n.MidDiscard()); k-- {
			l.step()
		}
	case 1:
		internalFault(n.routers[id], b, a)
		internalFault(nd.r, b, a)
	case 2: // a port without a link, or a fault that would partition a torus layer, is refused
		p := topology.North + topology.Port(b%4)
		if dead := !n.linkDead[id][p]; n.SetLinkFault(id, p, dead) == nil {
			u, _ := l.ref.far(id, p)
			nd.linkDead[p], u.linkDead[p.Opposite()] = dead, dead
		}
	case 3:
		if dead := !n.routerDead[id]; n.SetRouterFault(id, dead) == nil {
			nd.dead = dead
		}
	}
	l.shadow()
}

func (l *lockstep) step() {
	l.n.Step()
	l.ref.step()
	l.compare(l.n, "")
	if l.every > 0 && l.n.cycle%l.every == 0 {
		l.roundTrip()
	}
}

// compare fails unless n agrees with the reference on the clock, the
// packets delivered since the last compare, the next packet ID, every
// node (diffNode), the statistics and the observed counters, and unless
// n's links keep their credit invariants.
func (l *lockstep) compare(n *Network, when string) {
	t, m := l.t, l.ref
	t.Helper()
	c := m.cycle
	if n.cycle != c || n.nextID != m.nextID || !slices.Equal(l.got.pkts, l.want.pkts) {
		t.Fatalf("cycle %d%s: cycle %d, next packet ID %d, delivered %+v; reference next ID %d, delivered %+v", c, when, n.cycle, n.nextID, l.got.pkts, m.nextID, l.want.pkts)
	}
	l.got.pkts, l.want.pkts = l.got.pkts[:0], l.want.pkts[:0]
	for id := range m.nodes {
		if d := diffNode(n, m, id); d != "" {
			t.Fatalf("cycle %d%s: node %d: %s", c, when, id, d)
		}
	}
	if !n.stats.Equal(m.stats) {
		t.Fatalf("cycle %d%s: statistics differ:\n%+v\n%+v", c, when, n.stats.Snapshot(), m.stats.Snapshot())
	}
	if a, b := n.Obs().Metrics.PerRouter(), m.cfg.Router.Obs.Metrics.PerRouter(); !reflect.DeepEqual(a, b) {
		t.Fatalf("cycle %d%s: observed counters differ, link utilization among them:\n%+v\n%+v", c, when, a, b)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d%s: %v", c, when, err)
	}
}

func sameFlit(a, b *flit.Flit) bool { return a.Kind == b.Kind && a.Seq == b.Seq && *a.Pkt == *b.Pkt }

// diffNode names the first thing node id of n differs in from the
// reference's, or returns "": the router's canonical state, counters and
// input latch (contents and order), the NI, the links the node sends on,
// its fault state and its retransmission entries (wantRetx). It also
// names a link register of n's that is not empty, as all must be
// between steps.
func diffNode(n *Network, m *refNet, id int) string {
	nd := &m.nodes[id]
	r, ni := n.routers[id], n.nis[id]
	flits, credits := r.Inputs()
	mflits, mcredits := nd.r.Inputs()
	switch {
	case !bytes.Equal(r.AppendCanonical(nil), nd.r.AppendCanonical(nil)):
		return "router canonical states differ"
	case r.Counters != nd.r.Counters:
		return fmt.Sprintf("router counters %+v, reference %+v", r.Counters, nd.r.Counters)
	case !slices.EqualFunc(flits, mflits, func(a, b core.FlitIn) bool { return a.In == b.In && a.VC == b.VC && sameFlit(a.F, b.F) }):
		return fmt.Sprintf("input latch flits %v, reference %v", flits, mflits)
	case !slices.Equal(credits, mcredits):
		return fmt.Sprintf("input latch credits %v, reference %v", credits, mcredits)
	}
	if err := r.CheckOccupancy(); err != nil {
		return err.Error()
	}

	queued, active := 0, 0
	for cls, q := range ni.queues {
		if !slices.EqualFunc(q, nd.queues[cls], func(a, b *flit.Packet) bool { return *a == *b }) {
			return fmt.Sprintf("NI class %d queue %v, reference %v", cls, q, nd.queues[cls])
		}
		queued += len(q)
	}
	for v, fl := range ni.active {
		if !slices.EqualFunc(fl, nd.sending[v], sameFlit) {
			return fmt.Sprintf("NI VC %d flits %v, reference %v", v, fl, nd.sending[v])
		}
		active += min(len(fl), 1)
	}
	if ni.queued != queued || ni.activeVCs != active || ni.sendScan != nd.next ||
		!slices.Equal(ni.vcBusy, nd.busy) || !slices.Equal(ni.credits, nd.credits) || !slices.Equal(n.inNICredits[id], nd.back) {
		return fmt.Sprintf("NI counts %d queued, %d sending of %d, %d; next VC %d, busy %v, credits %v, returned %v; reference next %d, busy %v, credits %v, returned %v",
			ni.queued, ni.activeVCs, queued, active, ni.sendScan, ni.vcBusy, ni.credits, n.inNICredits[id], nd.next, nd.busy, nd.credits, nd.back)
	}

	if n.inbound[id] != 0 {
		return fmt.Sprintf("inbound word %#x left after the commit", n.inbound[id])
	}
	for p := range n.ports {
		link := id*n.ports + p
		if n.flitReg[link] != (core.FlitIn{}) || n.creditReg[link] != (creditRun{}) {
			return fmt.Sprintf("port %d's link register not emptied: %+v %+v", p, n.flitReg[link], n.creditReg[link])
		}
		for v := range nd.mid[p] {
			if n.midFlight[link]>>v&1 != 0 != nd.mid[p][v] || n.linkDrop[link]>>v&1 != 0 != nd.drop[p][v] {
				return fmt.Sprintf("port %d: midFlight/linkDrop %#x/%#x, reference %v/%v", p, n.midFlight[link], n.linkDrop[link], nd.mid[p], nd.drop[p])
			}
		}
	}
	if !slices.Equal(n.linkDead[id], nd.linkDead) || n.routerDead[id] != nd.dead {
		return fmt.Sprintf("dead links %v, router %v; reference %v, %v", n.linkDead[id], n.routerDead[id], nd.linkDead, nd.dead)
	}

	if want := m.wantRetx(id); n.seqNext[id] != nd.seqNext || !slices.EqualFunc(n.retx[id], want, sameRetx) {
		return fmt.Sprintf("next sequence number %d, retransmission entries %+v; reference %d, %+v", n.seqNext[id], n.retx[id], nd.seqNext, want)
	}
	return ""
}

// wantRetx is what node id's retransmission entries must be, in sequence
// order: the reference's timing entries, and one entry for every other
// packet of the node's that got an entry and has a copy in flight,
// delivered if its sink has it and abandoned if not — each with the
// count of its copies in flight.
func (m *refNet) wantRetx(id int) []retxEntry {
	nd := &m.nodes[id]
	var want []retxEntry
	for _, e := range nd.retx {
		e.alive = int32(nd.copies[e.seq])
		want = append(want, e)
	}
	//nocvet:ignore determinism the entries are sorted before use
	for seq, k := range nd.copies {
		dst, ok := nd.protected[seq]
		if !ok || slices.ContainsFunc(nd.retx, func(e retxEntry) bool { return e.seq == seq }) {
			continue
		}
		e := retxEntry{seq: seq, state: retxAbandoned, alive: int32(k)}
		if m.nodes[dst].delivered[[2]uint64{uint64(id), seq}] {
			e.state = retxDelivered
		}
		want = append(want, e)
	}
	slices.SortFunc(want, func(a, b retxEntry) int { return cmp.Compare(a.seq, b.seq) })
	return want
}

// sameRetx compares a retransmission entry with the reference's: all of
// a timing entry, and of one whose timer has stopped what still counts —
// its sequence number, state and copies in flight.
func sameRetx(a, b retxEntry) bool {
	if a.state == retxTiming {
		return a == b
	}
	return a.seq == b.seq && a.state == b.state && a.alive == b.alive
}

// roundTrip moves the network into the spare twice over, the spare
// holding an older state with every fault site flipped, and steps on
// from the spare, so a restore that leaves a field as it was, or that
// consumes what it restores, shows at once or at a later compare. First
// every node goes across by SaveNode and RestoreNode, which leave the
// clock, packet IDs and statistics behind (sections); then, from an
// older state again, the whole network by a Snapshot taken into the
// last round trip's storage, restored twice and compared with the
// reference each time.
func (l *lockstep) roundTrip() {
	n, spare := l.n, l.spare
	flipAll(spare)
	for id := range n.routers {
		spare.RestoreNode(id, n.SaveNode(id))
	}
	l.sections(spare)
	if l.saved != nil {
		spare.Restore(l.saved)
	}
	s := n.SnapshotInto(l.saved)
	if l.saved != nil && s != l.saved {
		l.t.Fatal("SnapshotInto took fresh storage over storage of this network's shape")
	}
	spare.Restore(s)
	if a, b := spare.StateHash(), n.StateHash(); a != b {
		l.t.Fatalf("cycle %d: restored state hash %#x, network %#x", n.cycle, a, b)
	}
	l.compare(spare, ", restored")
	flipAll(spare)
	spare.Restore(s)
	l.compare(spare, ", restored again into flipped faults")
	l.n, l.spare, l.saved = spare, n, s
	l.shadow()
}

// sections fails unless a, whose nodes were restored from the network's
// records at another cycle, agrees with the network on every node's
// canonical section and router counters, and on its packets and
// retransmission timers, which the section holds relative to the clock
// or not at all: saved again, a's must be the network's once moved by
// the distance between the clocks. a must keep its credit invariants.
func (l *lockstep) sections(a *Network) {
	t, n := l.t, l.n
	t.Helper()
	for id := range n.routers {
		ra, rn := a.SaveNode(id), n.SaveNode(id)
		for i := range ra.pkts {
			ra.pkts[i].CreatedAt += n.cycle - a.cycle
			ra.pkts[i].InjectedAt += n.cycle - a.cycle
		}
		for i := range ra.retx {
			ra.retx[i].createdAt += n.cycle - a.cycle
			ra.retx[i].deadline += n.cycle - a.cycle
		}
		if !bytes.Equal(a.AppendCanonicalNode(nil, id), n.AppendCanonicalNode(nil, id)) || a.routers[id].Counters != n.routers[id].Counters ||
			!slices.Equal(ra.pkts, rn.pkts) || !slices.Equal(ra.retx, rn.retx) {
			t.Fatalf("cycle %d, restored node by node: node %d's canonical sections, router counters, packets or retransmission timers differ", n.cycle, id)
		}
		if err := a.routers[id].CheckOccupancy(); err != nil {
			t.Fatalf("cycle %d, restored node by node: router %d: %v", n.cycle, id, err)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d, restored node by node: %v", n.cycle, err)
	}
}

// flipAll flips every fault site of n: each router-internal site, each
// link and each router.
func flipAll(n *Network) {
	for id, r := range n.routers {
		cfg := r.Config()
		for p := range topology.Port(cfg.Ports) {
			r.SetRCFault(p, 0, !r.RCFault(p, 0))
			r.SetSA1Fault(p, !r.SA1Fault(p))
			r.SetSA1BypassFault(p, !r.SA1BypassFault(p))
			r.SetSA2Fault(p, !r.SA2Fault(p))
			r.SetXBFault(p, !r.XBFault(p))
			if cfg.FaultTolerant {
				r.SetRCFault(p, 1, !r.RCFault(p, 1))
				r.SetXBSecondaryFault(p, !r.XBSecondaryFault(p))
			}
			for v := range cfg.VCs {
				r.SetVA1Fault(p, v, !r.VA1Fault(p, v))
				r.SetVA2Fault(p, v, !r.VA2Fault(p, v))
			}
			if n.neighbor(id, p) >= 0 {
				n.linkDead[id][p] = !n.linkDead[id][p]
			}
		}
		n.routerDead[id] = !n.routerDead[id]
	}
	n.rebuildRoutes()
}

// fuzzConfig decodes the header the two fuzz targets share: topology
// family and size, classes and VCs, buffer depth, router design, and
// retransmission, with a timeout of 40 plus data[5]>>retxShift, three
// retries or, with bit 2 of data[3], one, and the default buffer or,
// with bit 3 of data[3], room for one packet.
func fuzzConfig(data []byte, retxShift uint) Config {
	rc := router.DefaultConfig()
	rc.Classes = 1 + int(data[3]%2)
	rc.VCs = rc.Classes * (2 + int(data[3]>>1%2)) // a torus needs two VCs per class
	rc.Depth = 1 + int(data[4]%5)
	rc.FaultTolerant = data[5]&1 == 0
	cfg := Config{Width: 2 + int(data[1]%4), Height: 1 + int(data[2]%4), Topo: fuzzTopo(data[0]), Router: rc, Workers: 1}
	if data[5]&2 != 0 {
		cfg.Retx = RetxConfig{Timeout: 40 + sim.Cycle(data[5]>>retxShift), MaxRetries: 3}
		if data[3]&4 != 0 {
			cfg.Retx.MaxRetries = 1
		}
		if data[3]&8 != 0 {
			cfg.Retx.Buffer = 1
		}
	}
	return cfg
}

// FuzzCommitMatchesReference steps a network in lockstep with refNet,
// round-tripping it every 11 cycles, on one or two workers. The header
// picks the configuration (fuzzConfig), the worker count, an injection
// rate and a traffic seed; the bytes after it are events applied to
// both between steps (lockstep.event): run some cycles (optionally until
// a packet is being discarded at a dead link), break a router-internal
// site, kill or repair a link or a router.
func FuzzCommitMatchesReference(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzCommitMatchesReference.
	f.Add([]byte{0, 2, 2, 0, 3, 0, 6, 1, 0, 40, 0, 2, 5, 1, 0, 40, 1, 2, 5, 1, 0, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 8 {
			data = append(data, 0)
		}
		cfg := fuzzConfig(data, 3)
		cfg.Workers = 1 + int(data[5]>>2&1)
		l := newLockstep(t, cfg, 0.02+float64(data[6]%16)*0.03, data[7], 11)
		for ev := data[8:]; len(ev) >= 3; ev = ev[3:] {
			l.event(ev[0]%4, ev[1], ev[2])
		}
		l.run(64)
	})
}

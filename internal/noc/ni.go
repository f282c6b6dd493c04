package noc

import (
	"fmt"

	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
)

// NI is a node's network interface. On the injection side it plays the
// role of an upstream router for the local input port: it allocates a free
// local VC per packet, tracks credits, and streams at most one flit per
// cycle into the router. On the ejection side it consumes flits arriving
// at the local output port instantly and returns credits.
type NI struct {
	// queued counts the packets in queues and activeVCs the non-empty
	// entries of active. With obs they are all an idle tick reads, so
	// they come first: an idle NI costs one line.
	//noc:derived recounted from queues by restoreNI; excluded from the canonical encoding because the queues it counts are encoded
	queued int
	//noc:derived excluded from the canonical encoding: it is the count of non-empty active entries, which are encoded
	activeVCs int
	// obs is the node's observability handle (nil when disabled).
	//noc:derived immutable wiring, bound at construction; observational only
	obs *obs.NodeObs
	// depth is the queue level last reported to obs: tick reports queued
	// only when it differs, so an idle NI touches no observability state.
	//noc:derived observational only: the level last reported, never read by the simulation
	depth int

	node int           //noc:derived immutable identity, fixed at construction
	r    routerCore    //noc:derived immutable wiring, fixed at construction
	cfg  router.Config //noc:derived immutable configuration, fixed at construction

	// queues holds packets waiting for a VC, one queue per message class.
	queues [][]*flit.Packet
	// active holds, per allocated local VC, the packet's remaining
	// flits (empty when the VC is idle). A dense slice instead of a map
	// keeps the per-cycle send scan allocation-free.
	active [][]*flit.Flit
	// vcBusy and credits track the router's local input VCs.
	vcBusy  []bool
	credits []int
	// sendScan rotates the VC served first, for fairness.
	sendScan int

	// queueBuf and activeBuf keep whole the backing arrays restoreNI
	// refills queues and active from; nil until the first restore.
	queueBuf  [][]*flit.Packet //noc:derived restore scratch: storage only, its contents are queues'
	activeBuf [][]*flit.Flit   //noc:derived restore scratch: storage only, its contents are active's

	// eject assembles arriving packets; flits of a packet arrive in
	// order, so we only track the count per packet.
	//noc:derived immutable wiring, fixed at construction
	onEject func(*flit.Packet, sim.Cycle)
}

// routerCore is the router interface the NI depends on (satisfied by
// *core.Router).
type routerCore interface {
	AcceptFlit(router.InFlit)
	Config() router.Config
}

// newNI builds the network interface for node attached to router r.
func newNI(node int, r routerCore, on *obs.NodeObs, onEject func(*flit.Packet, sim.Cycle)) *NI {
	cfg := r.Config()
	ni := &NI{
		node:    node,
		r:       r,
		cfg:     cfg,
		queues:  make([][]*flit.Packet, cfg.Classes),
		active:  make([][]*flit.Flit, cfg.VCs),
		vcBusy:  make([]bool, cfg.VCs),
		credits: make([]int, cfg.VCs),
		onEject: onEject,
		obs:     on,
	}
	for v := range ni.credits {
		ni.credits[v] = cfg.Depth
	}
	return ni
}

// Offer enqueues a packet for injection. The packet's CreatedAt stamp must
// already be set.
func (ni *NI) Offer(p *flit.Packet) {
	cls := int(p.Class)
	if cls >= ni.cfg.Classes {
		cls = ni.cfg.Classes - 1
	}
	ni.queues[cls] = append(ni.queues[cls], p)
	ni.queued++
}

// QueuedPackets returns the number of packets waiting for a VC, counted
// from the queues themselves (the nocassert layer holds the NI's
// maintained count to it).
func (ni *NI) QueuedPackets() int {
	n := 0
	for _, q := range ni.queues {
		n += len(q)
	}
	return n
}

// Sending reports whether any packet is mid-injection.
func (ni *NI) Sending() bool { return ni.activeVCs > 0 }

// acceptCredit processes a credit returned by the router's local input
// port.
func (ni *NI) acceptCredit(c router.Credit) {
	ni.creditReturn(int(c.VC))
	if c.VCFree {
		ni.vcBusy[c.VC] = false
	}
}

// creditReturn is the audited entry point for adding a local-link credit
// on VC v, with its overflow panic (see the creditflow analyzer in
// internal/analysis).
//
//noc:credit-accessor
func (ni *NI) creditReturn(v int) {
	ni.credits[v]++
	if ni.credits[v] > ni.cfg.Depth {
		panic(fmt.Sprintf("noc: NI %d credit overflow on vc%d", ni.node, v))
	}
}

// creditSpend is the audited entry point for consuming a local-link
// credit on VC v when a flit enters the router, with its underflow panic.
//
//noc:credit-accessor
func (ni *NI) creditSpend(v int) {
	ni.credits[v]--
	if ni.credits[v] < 0 {
		panic(fmt.Sprintf("noc: NI %d negative credit on vc%d", ni.node, v))
	}
}

// tick allocates VCs to queued packets and sends at most one flit. An NI
// with nothing queued and no packet mid-injection has neither to do.
func (ni *NI) tick(cy sim.Cycle) {
	if ni.activeVCs == 0 && ni.queued == 0 {
		ni.reportDepth()
		return
	}
	// Allocate a free local VC to the head packet of each class queue.
	for cls := range ni.queues {
		if len(ni.queues[cls]) == 0 {
			continue
		}
		lo, hi := ni.cfg.ClassRange(cls)
		for v := lo; v < hi; v++ {
			if ni.vcBusy[v] {
				continue
			}
			p := ni.queues[cls][0]
			ni.queues[cls] = ni.queues[cls][1:]
			ni.queued--
			p.InjectedAt = cy
			ni.vcBusy[v] = true
			//nocvet:ignore hotpathalloc segmentation allocates per injected packet, not per steady-state cycle; the zero-alloc contract pins the post-transient loop
			ni.active[v] = flit.Segment(p)
			ni.activeVCs++
			break
		}
	}
	ni.reportDepth()

	// Send one flit from one active VC (the local link carries one flit
	// per cycle), rotating the starting VC for fairness: VCs sendScan and
	// up first, then the ones below it.
	for i, v := 0, ni.sendScan; i < ni.cfg.VCs; i++ {
		next := v + 1
		if next == ni.cfg.VCs {
			next = 0
		}
		fl := ni.active[v]
		if len(fl) == 0 || ni.credits[v] == 0 {
			v = next
			continue
		}
		f := fl[0]
		//nocvet:ignore hotpathalloc routerCore is always *core.Router, whose AcceptFlit is a self-append into a pre-capped latch
		ni.r.AcceptFlit(router.InFlit{In: localPort, VC: v, F: f})
		ni.obs.NIFlitSent()
		ni.creditSpend(v)
		if len(fl) == 1 {
			ni.active[v] = nil
			ni.activeVCs--
		} else {
			ni.active[v] = fl[1:]
		}
		ni.sendScan = next
		break
	}
}

// reportDepth reports the queue level to the node's gauge when it moved
// since the last report.
func (ni *NI) reportDepth() {
	if ni.queued != ni.depth {
		ni.depth = ni.queued
		ni.obs.NIQueueDepth(ni.queued)
	}
}

// consume handles a flit ejected at the local output port.
func (ni *NI) consume(f *flit.Flit, cy sim.Cycle) {
	if f.Pkt.Dst != ni.node {
		panic(fmt.Sprintf("noc: packet for node %d ejected at node %d", f.Pkt.Dst, ni.node))
	}
	if f.Kind.IsTail() {
		f.Pkt.EjectedAt = cy
		if ni.onEject != nil {
			ni.onEject(f.Pkt, cy)
		}
	}
}

package noc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// This file keeps the link commit that the inbound masks and link
// registers of network.go replaced, verbatim but for the ref prefix, the
// narrow latch entries it now appends, and linkTraffic, which was a
// Network field and is the caller's slice here: each destination node
// probed its four neighbours' linkTraffic words and re-walked their
// staged flits and credits for the ones on its link. It is the oracle of
// FuzzCommitMatchesReference.

// refStep is Step with the commit this file keeps: the same pre-phase
// and compute phase, then refCommitLocal and, node by node,
// refCommitLinksNode.
func (n *Network) refStep(linkTraffic []uint64) {
	c := n.cycle
	n.generate(c)
	n.compute(c)
	n.refCommitLocal(c, linkTraffic)
	for id := range n.routers {
		n.refCommitLinksNode(id, linkTraffic)
	}
	n.cycle++
}

// refCommitLocal is the old commitLocal.
func (n *Network) refCommitLocal(c sim.Cycle, linkTraffic []uint64) {
	for id := range n.routers {
		for _, pkt := range n.routers[id].TakeDropped() {
			// Routing declared the destination unreachable; the router
			// drains the buffered flits itself.
			n.stats.RecordDrop(pkt)
			if on := n.obsNodes[id]; on != nil {
				on.DropUnreachable(c, pkt.Dst)
			}
		}
		var links uint64
		crossing := n.stagedFlits[id][:0]
		for _, of := range n.stagedFlits[id] {
			if of.Out != localPort {
				if n.neighbor(id, of.Out) < 0 {
					panic(fmt.Sprintf("noc: router %d emitted flit through edge port %v", id, of.Out))
				}
				if !n.refDiscardAtLink(id, of, c) {
					crossing = append(crossing, of)
					links |= 1 << uint(of.Out)
				}
				continue
			}
			n.linkFlits[id][of.Out]++
			if on := n.obsNodes[id]; on != nil {
				on.LinkFlit(int(of.Out), of.DownVC)
			}
			if n.routerDead[id] {
				// A dead node ejects nothing: the packet (necessarily
				// one already inside this router when it died) is
				// discarded, but the router's local output still gets
				// its ejection credit so the pipeline drains.
				if of.F.Kind.IsTail() {
					n.stats.RecordDrop(of.F.Pkt)
					if on := n.obsNodes[id]; on != nil {
						on.DropUnreachable(c, of.F.Pkt.Dst)
					}
				}
			} else {
				n.nis[id].consume(of.F, c)
			}
			// Ejection credit back to this router's local output.
			n.inCredits[id] = append(n.inCredits[id],
				credit{port: uint8(localPort), vc: uint8(of.DownVC), free: of.F.Kind.IsTail()})
		}
		n.stagedFlits[id] = crossing
		for _, cr := range n.stagedCredits[id] {
			if cr.In != localPort {
				if n.neighbor(id, cr.In) < 0 {
					panic(fmt.Sprintf("noc: router %d emitted credit through edge port %v", id, cr.In))
				}
				links |= 1 << uint(cr.In)
				continue
			}
			n.inNICredits[id] = append(n.inNICredits[id],
				credit{port: uint8(cr.In), vc: uint8(cr.VC), free: cr.VCFree})
		}
		linkTraffic[id] = links
	}
}

// refCommitLinksNode is the old commitLinksNode.
func (n *Network) refCommitLinksNode(u int, linkTraffic []uint64) {
	for p := topology.Port(1); int(p) < n.ports; p++ {
		v := n.neighbor(u, p)
		if v < 0 {
			continue
		}
		q := p.Opposite() // v's output port facing u
		if linkTraffic[v]>>uint(q)&1 == 0 {
			continue
		}
		mf := &n.midFlight[v*n.ports+int(q)]
		for _, of := range n.stagedFlits[v] {
			if of.Out != q {
				continue
			}
			dvc := of.DownVC
			if of.F.Kind.IsHead() {
				*mf |= 1 << uint(dvc)
			}
			if of.F.Kind.IsTail() {
				*mf &^= 1 << uint(dvc)
			}
			n.linkFlits[v][q]++
			if on := n.obsNodes[v]; on != nil {
				on.LinkFlit(int(q), dvc)
			}
			n.inFlits[u] = append(n.inFlits[u],
				inFlit{in: uint8(p), vc: uint8(dvc), f: of.F})
		}
		for _, cr := range n.stagedCredits[v] {
			if cr.In != q {
				continue
			}
			n.inCredits[u] = append(n.inCredits[u],
				credit{port: uint8(p), vc: uint8(cr.VC), free: cr.VCFree})
		}
	}
}

// refDiscardAtLink is the old discardAtLink.
func (n *Network) refDiscardAtLink(id int, of router.OutFlit, c sim.Cycle) bool {
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

// flitKey names a latched flit by what both twins agree on: the port and
// VC it waits at, and its packet ID, position and kind (the twins hold
// distinct but identically numbered packets).
type flitKey struct {
	in, vc uint8
	pkt    uint64
	seq    int
	kind   uint8
}

func flitKeys(ws []inFlit) []flitKey {
	out := make([]flitKey, len(ws))
	for i, w := range ws {
		out[i] = flitKey{w.in, w.vc, w.f.Pkt.ID, w.f.Seq, uint8(w.f.Kind)}
	}
	return out
}

// requireSameCommit fails unless the network stepped by the production
// commit and its twin stepped by the reference agree on everything the
// commit writes: the three inbound latches, contents and order, the
// per-link wormhole masks and utilization counts, the statistics and the
// canonical state. It also requires the production network's link
// registers and inbound masks empty, as they must be between steps.
func requireSameCommit(t *testing.T, when string, got, ref *Network) {
	t.Helper()
	for id := range got.routers {
		if a, b := flitKeys(got.inFlits[id]), flitKeys(ref.inFlits[id]); !slices.Equal(a, b) {
			t.Fatalf("%s: node %d flit latch %+v, reference %+v", when, id, a, b)
		}
		if a, b := got.inCredits[id], ref.inCredits[id]; !slices.Equal(a, b) {
			t.Fatalf("%s: node %d credit latch %+v, reference %+v", when, id, a, b)
		}
		if a, b := got.inNICredits[id], ref.inNICredits[id]; !slices.Equal(a, b) {
			t.Fatalf("%s: node %d NI credit latch %+v, reference %+v", when, id, a, b)
		}
		if a, b := got.linkFlits[id], ref.linkFlits[id]; !slices.Equal(a, b) {
			t.Fatalf("%s: node %d link utilization %v, reference %v", when, id, a, b)
		}
		if got.inbound[id] != 0 {
			t.Fatalf("%s: node %d inbound mask %#x left after the commit", when, id, got.inbound[id])
		}
	}
	for i := range got.flitReg {
		if got.flitReg[i] != (inFlit{}) || got.creditReg[i] != (creditRun{}) {
			t.Fatalf("%s: link register %d not emptied: %+v %+v", when, i, got.flitReg[i], got.creditReg[i])
		}
	}
	if !slices.Equal(got.midFlight, ref.midFlight) || !slices.Equal(got.linkDrop, ref.linkDrop) {
		t.Fatalf("%s: link masks differ: midFlight %x / %x, linkDrop %x / %x", when, got.midFlight, ref.midFlight, got.linkDrop, ref.linkDrop)
	}
	if a, b := got.Stats().Snapshot(), ref.Stats().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: statistics differ:\n%+v\n%+v", when, a, b)
	}
	if a, b := got.StateHash(), ref.StateHash(); a != b {
		t.Fatalf("%s: state hash %#x, reference %#x", when, a, b)
	}
}

// FuzzCommitMatchesReference holds the link commit — inbound masks, link
// registers, the sender-side link accounting — against the neighbour-
// probing commit it replaced (refCommitLocal, refCommitLinksNode). The
// input picks a topology family and size, VCs, classes and depth, the
// router design, retransmission, one or two workers, an injection rate
// and a traffic seed; the bytes after the header are events applied to
// both networks between steps: run some cycles (optionally until a
// packet is being discarded at a dead link), break a router-internal
// site, kill or repair a link or a router. The twins step in lockstep
// and must agree after every commit.
func FuzzCommitMatchesReference(f *testing.F) {
	// The named seeds are in testdata/fuzz/FuzzCommitMatchesReference.
	f.Add([]byte{0, 2, 2, 0, 3, 0, 6, 1, 0, 40, 0, 2, 5, 1, 0, 40, 1, 2, 5, 1, 0, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 8 {
			data = append(data, 0)
		}
		kind := []string{"mesh", "torus", "cmesh"}[data[0]%3]
		w, h := 2+int(data[1]%4), 1+int(data[2]%4)
		rc := router.DefaultConfig()
		rc.Classes = 1 + int(data[3]%2)
		rc.VCs = rc.Classes * (2 + int(data[3]>>1%2)) // a torus needs two VCs per class
		rc.Depth = 1 + int(data[4]%5)
		rc.FaultTolerant = data[5]&1 == 0
		var retx RetxConfig
		if data[5]&2 != 0 {
			retx = RetxConfig{Timeout: 40 + sim.Cycle(data[5]>>3), MaxRetries: 3}
		}
		workers := 1 + int(data[5]>>2&1)
		nodes := w * h
		rate := 0.02 + float64(data[6]%16)*0.03
		build := func() *Network {
			src := traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), uint64(data[7])+1)
			n, err := New(Config{Width: w, Height: h, Topo: kind, Router: rc, Workers: workers, Retx: retx}, src)
			if err != nil {
				t.Skipf("%dx%d %s %+v: %v", w, h, kind, rc, err)
			}
			t.Cleanup(n.Close)
			return n
		}
		got, ref := build(), build()
		linkTraffic := make([]uint64, nodes)
		step := func() {
			got.Step()
			ref.refStep(linkTraffic)
			requireSameCommit(t, fmt.Sprintf("cycle %d", got.cycle), got, ref)
		}

		for ev := data[8:]; len(ev) >= 3; ev = ev[3:] {
			id := int(ev[1]) % nodes
			switch ev[0] % 4 {
			case 0: // run; an odd third byte stops inside a dead-link discard
				for k := 1 + int(ev[1]%64); k > 0 && !(ev[2]&1 != 0 && got.MidDiscard()); k-- {
					step()
				}
			case 1:
				internalFault(got.routers[id], ev[2], ev[1])
				internalFault(ref.routers[id], ev[2], ev[1])
			case 2: // a port without a link, or a fault that would partition a torus layer, is refused
				p := topology.North + topology.Port(ev[2]%4)
				kill := !got.linkDead[id][p]
				if (got.SetLinkFault(id, p, kill) == nil) != (ref.SetLinkFault(id, p, kill) == nil) {
					t.Fatal("the twins disagree on a link fault")
				}
			case 3:
				kill := !got.routerDead[id]
				if (got.SetRouterFault(id, kill) == nil) != (ref.SetRouterFault(id, kill) == nil) {
					t.Fatal("the twins disagree on a router fault")
				}
			}
		}
		for k := 0; k < 64; k++ {
			step()
		}
	})
}

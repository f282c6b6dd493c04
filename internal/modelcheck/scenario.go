// Package modelcheck is the third correctness tier of gonoc, next to
// the nocvet static analyzers and the nocassert runtime assertions: a
// bounded exhaustive state-space explorer that drives the real
// noc.Network step function through every reachable interleaving of
// packet injections and cycle ticks on small configurations, and proves
//
//   - deadlock freedom: no reachable quiescent state retains
//     undelivered traffic with no enabled transition, and
//   - delivery: every injected packet whose destination is reachable
//     arrives at its sink in every reachable execution,
//
// both fault free and under every single link or router fault. The
// exploration is exact, not sampled: states are deduplicated by the
// canonical encoding from noc.AppendCanonical (cycle-number free, so
// behaviourally identical states merge across time), and transitions
// are generated from saved node states (noc.NodeRecord / RestoreNode),
// so the model IS the simulator — there is no separate abstract model
// to drift out of sync.
//
// For configurations too large to exhaust, the package degrades
// gracefully: Explore returns an Exhausted verdict with the explored
// bound, and MonteCarlo samples random walks with a Chernoff-style
// confidence bound instead. Crossval closes the loop on the
// reliability side, recomputing the faults-to-failure expectation
// exactly from the router's failure predicate and asserting the
// Monte-Carlo campaign of internal/fault agrees.
package modelcheck

import (
	"fmt"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// Packet is one unit of scheduled traffic: the explorer decides when
// (and in which interleaving) each packet is offered, the scenario
// decides what the packet is.
type Packet struct {
	// Src and Dst are terminal node IDs.
	Src, Dst int
	// Size is the packet length in flits (>= 1).
	Size int
	// Class is the message class.
	Class flit.Class
}

// LinkFault names one bidirectional network link by (node, port), in
// the same convention as noc.SetLinkFault. On a torus this includes the
// wrap links (e.g. East on the last column).
type LinkFault struct {
	Node int
	Port topology.Port
}

// Scenario is a fully specified small configuration: the network shape,
// the static fault set, and the traffic whose interleavings the
// explorer enumerates. Scenarios are plain values so sweeps can derive
// variants by copying.
type Scenario struct {
	// Name labels the scenario in results and sweep output.
	Name string
	// Width and Height are the router-grid dimensions.
	Width, Height int
	// Topo selects the topology family, as noc.Config.Topo: "" or
	// "mesh" (the default) or "torus".
	Topo string
	// FaultTolerant selects the protected router (true) or baseline.
	FaultTolerant bool
	// VCs, Classes and Depth configure every router; zero values take
	// the small-model defaults (2 VCs, 1 class, depth 2) rather than
	// the paper's full-size router, to keep state spaces tractable.
	VCs, Classes, Depth int
	// Retx configures NI retransmission; the zero value disables it.
	Retx noc.RetxConfig
	// LinkFaults and RouterFaults are applied before exploration
	// starts; fault-aware routing reroutes around them.
	LinkFaults   []LinkFault
	RouterFaults []int
	// Packets is the traffic to deliver. Injection order per source
	// follows slice order; interleaving across sources and with ticks
	// is the explorer's choice.
	Packets []Packet
	// SabotageNode, when >= 0, arms a credit-loss sabotage transition
	// at that node: the explorer may discard one pending upstream
	// credit there (noc.DropPendingCredit), modelling a flow-control
	// corruption the design does NOT tolerate. Used to validate that
	// the checker finds and reports real deadlocks; -1 disables.
	SabotageNode int
}

// RingOn returns the standard small-model scenario on a w x h grid of
// topology family topo ("" or "mesh", or "torus"): every node sends
// one single-flit packet to its successor in node order, the densest
// all-nodes-active pattern with a small packet count.
func RingOn(topo string, w, h int) Scenario {
	n := w * h
	sc := Scenario{
		Name:          fmt.Sprintf("ring-%dx%d", w, h),
		Width:         w,
		Height:        h,
		FaultTolerant: true,
		SabotageNode:  -1,
	}
	if topo != "" && topo != "mesh" {
		sc.Topo = topo
		sc.Name = fmt.Sprintf("ring-%dx%d-%s", w, h, topo)
	}
	for i := 0; i < n; i++ {
		sc.Packets = append(sc.Packets, Packet{Src: i, Dst: (i + 1) % n, Size: 1})
	}
	return sc
}

// topology resolves the scenario's router-graph topology.
func (sc *Scenario) topology() (topology.Topology, error) {
	return topology.New(sc.Topo, sc.Width, sc.Height)
}

// SingleFaultSweep derives from base the full single-fault family: the
// fault-free scenario, one scenario per dead network link (on a torus
// this includes every wrap link), and one per dead router. Exploring
// every member proves the delivery claim for every single network-level
// fault site. A base whose topology does not resolve is returned alone;
// exploring it surfaces the configuration error.
func SingleFaultSweep(base Scenario) []Scenario {
	out := []Scenario{base}
	m, err := base.topology()
	if err != nil {
		return out
	}
	for id := 0; id < m.Nodes(); id++ {
		for _, p := range []topology.Port{topology.East, topology.South} {
			if _, ok := m.Neighbor(id, p); !ok {
				continue
			}
			sc := base
			sc.Name = fmt.Sprintf("%s/link-%d-%v", base.Name, id, p)
			sc.LinkFaults = append([]LinkFault{}, base.LinkFaults...)
			sc.LinkFaults = append(sc.LinkFaults, LinkFault{Node: id, Port: p})
			out = append(out, sc)
		}
	}
	for id := 0; id < m.Nodes(); id++ {
		sc := base
		sc.Name = fmt.Sprintf("%s/router-%d", base.Name, id)
		sc.RouterFaults = append([]int{}, base.RouterFaults...)
		sc.RouterFaults = append(sc.RouterFaults, id)
		out = append(out, sc)
	}
	return out
}

// routerConfig resolves the scenario's router configuration with the
// small-model defaults applied.
func (sc *Scenario) routerConfig() router.Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = sc.FaultTolerant
	rc.VCs = 2
	rc.Classes = 1
	rc.Depth = 2
	if sc.VCs > 0 {
		rc.VCs = sc.VCs
	}
	if sc.Classes > 0 {
		rc.Classes = sc.Classes
	}
	if sc.Depth > 0 {
		rc.Depth = sc.Depth
	}
	return rc
}

// validate rejects scenarios the explorer would mangle silently.
func (sc *Scenario) validate() error {
	nodes := sc.Width * sc.Height
	for i, p := range sc.Packets {
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			return fmt.Errorf("packet %d: endpoints %d->%d outside the %d-node mesh", i, p.Src, p.Dst, nodes)
		}
		if p.Size < 1 {
			return fmt.Errorf("packet %d: size %d < 1", i, p.Size)
		}
	}
	if sc.SabotageNode >= nodes {
		return fmt.Errorf("sabotage node %d outside the %d-node mesh", sc.SabotageNode, nodes)
	}
	return nil
}

// ledger is the explorer's Traffic: it offers nothing on its own
// (injection is an explorer transition) and records every delivery as a
// (src, seq) key. Its contents are part of the explorer's state and are
// saved and restored alongside network snapshots.
type ledger struct {
	delivered map[uint64]bool
}

func deliveryKey(src int, seq uint64) uint64 { return uint64(src)<<48 | seq }

func (l *ledger) Offered(node int, c sim.Cycle) []*flit.Packet { return nil }

func (l *ledger) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	l.delivered[deliveryKey(p.Src, p.Seq)] = true
	return nil
}

// build constructs the network (instrumented with observer o when
// non-nil) and the delivery ledger, and applies the scenario's static
// faults.
func (sc *Scenario) build(o *obs.Observer) (*noc.Network, *ledger, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	rc := sc.routerConfig()
	rc.Obs = o
	led := &ledger{delivered: make(map[uint64]bool)}
	n, err := noc.New(noc.Config{
		Width: sc.Width, Height: sc.Height, Topo: sc.Topo,
		Router: rc, Workers: 1, Retx: sc.Retx,
	}, led)
	if err != nil {
		return nil, nil, err
	}
	for _, lf := range sc.LinkFaults {
		if err := n.SetLinkFault(lf.Node, lf.Port, true); err != nil {
			n.Close()
			return nil, nil, err
		}
	}
	for _, id := range sc.RouterFaults {
		if err := n.SetRouterFault(id, true); err != nil {
			n.Close()
			return nil, nil, err
		}
	}
	return n, led, nil
}

// bySource groups the scenario's packets by source, preserving order.
func (sc *Scenario) bySource() [][]Packet {
	out := make([][]Packet, sc.Width*sc.Height)
	for _, p := range sc.Packets {
		out[p.Src] = append(out[p.Src], p)
	}
	return out
}

package noc

import (
	"cmp"
	"slices"

	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// NextHop reports the downstream router and the input port its link feeds
// when leaving router id through output port out. ok is false for the
// local (ejection) port and for mesh edges. It is the topology adapter
// obs.BuildSpans needs to chain hops across routers.
func (n *Network) NextHop(id, out int) (nextRouter, inPort int, ok bool) {
	p := topology.Port(out)
	if p == localPort {
		return 0, 0, false
	}
	nb := n.neighbor(id, p)
	if nb < 0 {
		return 0, 0, false
	}
	return nb, int(p.Opposite()), true
}

// Spans reconstructs per-packet hop spans from the network's retained
// trace window. It returns an empty set when the network runs without a
// tracer. Call it after the simulation (or between steps) — the builder
// reads a snapshot of the rings, so a live network is safe too.
func (n *Network) Spans() obs.SpanSet {
	o := n.Obs()
	if o == nil || o.Tracer == nil {
		return obs.SpanSet{}
	}
	evs := o.Tracer.Events()
	if o.Tracer.Dropped() > 0 {
		evs = commonWindow(evs, n.topo.Nodes())
	}
	return obs.BuildSpans(evs, obs.SpanConfig{
		NextHop:   n.NextHop,
		LocalPort: int(localPort),
	})
}

// commonWindow cuts a wrapped trace to the cycles every router's ring
// still holds in full: a quiet router keeps history its busy neighbour
// overwrote, and chained across that gap hops of different packets
// would join. Rings are equal-sized, so the full ones hold the most
// events; each may have lost part of its oldest cycle.
func commonWindow(evs []obs.Event, nodes int) []obs.Event {
	count, oldest := make([]int, nodes), make([]sim.Cycle, nodes)
	for _, e := range evs { // merge order: a router's first event is its oldest
		if r := int(e.Router); r >= 0 && r < nodes {
			if count[r]++; count[r] == 1 {
				oldest[r] = e.Cycle
			}
		}
	}
	full, from := slices.Max(count), sim.Cycle(0)
	for r, c := range count {
		if c == full {
			from = max(from, oldest[r]+1)
		}
	}
	i, _ := slices.BinarySearchFunc(evs, from, func(e obs.Event, c sim.Cycle) int { return cmp.Compare(e.Cycle, c) })
	return evs[i:]
}

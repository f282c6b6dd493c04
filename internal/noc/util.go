package noc

import (
	"fmt"
	"strings"

	"gonoc/internal/obs"
	"gonoc/internal/topology"
)

// Heatmap renders per-router link-flit counts (obs.KLinkFlits summed over
// the output ports, ejections included) as an ASCII grid, one cell per
// router, normalized to the busiest router: '.' for idle through '9' for
// the hottest, with 'X' marking non-functional and dead routers. It is
// the quickest way to see traffic concentration and fault-induced
// detours. The counts come from the network's observer registry, so it
// panics on a network built without one: set router.Config.Obs (a
// metrics-only obs.New(0) will do).
func (n *Network) Heatmap() string {
	o := n.Obs()
	if o == nil || o.Metrics == nil {
		panic("noc: Heatmap() reads the observer's link counters: build the network with router.Config.Obs = obs.New(0)")
	}
	flits := make([]uint64, len(n.routers))
	var top uint64
	for _, t := range o.Metrics.PerRouter() {
		// A registry may also hold network-global series (router -1).
		if t.Router >= 0 && t.Router < len(flits) {
			flits[t.Router] = t.Total[obs.KLinkFlits]
			top = max(top, flits[t.Router])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "router load heatmap (max %d flits)\n", top)
	w, h := n.topo.Dims()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := n.topo.ID(topology.Coord{X: x, Y: y})
			switch f := flits[id]; {
			case n.routerDead[id] || !n.routers[id].Functional():
				b.WriteString(" X")
			case f == 0:
				b.WriteString(" .")
			default:
				fmt.Fprintf(&b, " %d", max(1, f*9/top))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package noc

import (
	"fmt"

	"gonoc/internal/topology"
)

// CheckInvariants validates the global credit-conservation invariant of
// the network and returns the first violation found, or nil.
//
// For every inter-router link (upstream router U, output port P) feeding
// (downstream router D, input port Q = opposite(P)) and every VC v:
//
//	credits_U[P][v] + occupancy_D[Q][v] + inFlightFlits + inFlightCredits
//	  + pendingGrants_U[P][v] = Depth
//
// where the in-flight terms count flits on the downstream wire and
// credits on the upstream wire for that VC, and pendingGrants counts
// switch-allocation winners whose credit is reserved but whose flit has
// not yet traversed the crossbar. The same holds for the
// NI-to-router local links. Any leak — a credit lost, double-returned or
// misrouted, a flit accepted without a credit — breaks this equation, so
// tests can call CheckInvariants at any cycle boundary to pin down
// flow-control bugs the moment they happen.
func (n *Network) CheckInvariants() error {
	depth := n.cfg.Router.Depth
	for id, r := range n.routers {
		cfg := r.Config()
		for p := 1; p < cfg.Ports; p++ { // inter-router ports: N, E, S, W
			port := topology.Port(p)
			nb := n.neighbor(id, port)
			if nb < 0 {
				continue // edge port: no link
			}
			in := port.Opposite()
			for v := 0; v < cfg.VCs; v++ {
				credits := n.creditCount(id, port, v)
				occ := n.routers[nb].InputVC(in, v).Len()
				wireFlits := 0
				for _, w := range n.inFlits[nb] {
					if topology.Port(w.in) == in && int(w.vc) == v {
						wireFlits++
					}
				}
				wireCredits := 0
				for _, w := range n.inCredits[id] {
					if topology.Port(w.port) == port && int(w.vc) == v {
						wireCredits++
					}
				}
				pending := r.PendingGrants(port, v)
				total := credits + occ + wireFlits + wireCredits + pending
				if total != depth {
					return fmt.Errorf(
						"noc: credit leak on link r%d.%v -> r%d.%v vc%d: credits %d + occupancy %d + wire flits %d + wire credits %d + pending grants %d = %d, want %d",
						id, port, nb, in, v, credits, occ, wireFlits, wireCredits, pending, total, depth)
				}
			}
		}
	}
	return nil
}

// creditCount reads the router's internal credit counter via the public
// surface: FreeOutVCs covers allocation state, but for credits we track
// through a dedicated accessor on the router.
func (n *Network) creditCount(id int, p topology.Port, v int) int {
	return n.routers[id].Credits(p, v)
}

package noc

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/router"
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
// not yet traversed the crossbar. The same holds for the two local links
// of every node. The NI feeds the router's Local input port directly, so
// no flit is ever on that wire:
//
//	credits_NI[v] + occupancy_R[Local][v] + latchedNICredits = Depth
//
// and the NI consumes an ejected flit the cycle it leaves the router:
//
//	credits_R[Local][v] + latchedEjectionCredits + pendingGrants_R[Local][v] = Depth
//
// Any leak — a credit lost, double-returned or misrouted, a flit accepted
// without a credit — breaks one of these equations, so tests can call
// CheckInvariants at any cycle boundary to pin down flow-control bugs the
// moment they happen.
func (n *Network) CheckInvariants() error {
	depth := n.cfg.Router.Depth
	for id, r := range n.routers {
		cfg := r.Config()
		_, inCredits := r.Inputs()
		for v := 0; v < cfg.VCs; v++ {
			ni, occ, latched := n.nis[id].credits[v], r.InputVC(localPort, v).Len(), latchedNICredits(n.inNICredits[id], v)
			if total := ni + occ + latched; total != depth {
				return fmt.Errorf("noc: credit leak on local link ni%d -> r%d.%v vc%d: NI credits %d + occupancy %d + latched NI credits %d = %d, want %d",
					id, id, localPort, v, ni, occ, latched, total, depth)
			}
			credits, latched, pending := r.Credits(localPort, v), latchedCredits(inCredits, localPort, v), r.PendingGrants(localPort, v)
			if total := credits + latched + pending; total != depth {
				return fmt.Errorf("noc: credit leak on local link r%d.%v -> ni%d vc%d: credits %d + latched ejection credits %d + pending grants %d = %d, want %d",
					id, localPort, id, v, credits, latched, pending, total, depth)
			}
		}
		for p := 1; p < cfg.Ports; p++ { // inter-router ports: N, E, S, W
			port := topology.Port(p)
			nb := n.neighbor(id, port)
			if nb < 0 {
				continue // edge port: no link
			}
			in := port.Opposite()
			nbFlits, _ := n.routers[nb].Inputs()
			for v := 0; v < cfg.VCs; v++ {
				credits := r.Credits(port, v)
				occ := n.routers[nb].InputVC(in, v).Len()
				wireFlits := 0
				for _, w := range nbFlits {
					if w.In == in && int(w.VC) == v {
						wireFlits++
					}
				}
				wireCredits := latchedCredits(inCredits, port, v)
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

// latchedCredits counts the credits in a router's input latch cs for
// downstream VC v of its output p.
func latchedCredits(cs []core.CreditIn, p topology.Port, v int) int {
	k := 0
	for _, c := range cs {
		if c.Out == p && int(c.VC) == v {
			k++
		}
	}
	return k
}

// latchedNICredits counts the credits in an NI's latch cs for its VC v.
func latchedNICredits(cs []router.Credit, v int) int {
	k := 0
	for _, c := range cs {
		if int(c.VC) == v {
			k++
		}
	}
	return k
}

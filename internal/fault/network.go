package fault

import (
	"fmt"

	"gonoc/internal/noc"
)

// ApplyNetwork injects (or with value false, repairs) site s at router
// routerID in a live network. The network-level kinds are dispatched to
// the network's link/router fault state — which activates fault-aware
// routing and, for packets already heading into the failure, produces
// link drops the NI retransmission layer recovers — and every in-router
// kind falls through to Apply on the target router, once Site.Check has
// established that the router has such a site.
func ApplyNetwork(n *noc.Network, routerID int, s Site, value bool) error {
	topo := n.Topo()
	if routerID < 0 || routerID >= topo.Nodes() {
		w, h := topo.Dims()
		return fmt.Errorf("fault: router %d outside %dx%d %s", routerID, w, h, topo.Kind())
	}
	switch s.Kind {
	case LinkDead:
		return n.SetLinkFault(routerID, s.Port, value)
	case RouterDead:
		return n.SetRouterFault(routerID, value)
	default:
		r := n.Router(routerID)
		if err := s.Check(r.Config()); err != nil {
			return err
		}
		Apply(r, s, value)
		return nil
	}
}

//go:build nocassert

// Runtime counterpart of the nocvet analyzers (internal/analysis): where
// the analyzers prove structural rules about the source, this layer
// checks the dynamic invariants those rules protect, once per tick.
// Build with
//
//	go test -tags nocassert ./...
//
// to enable it; the default build compiles it out entirely (see
// assert_off.go).
package noc

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// assertEnabled gates the per-tick runtime assertion layer: this build
// has the nocassert tag, so Step verifies the network after every commit
// phase.
const assertEnabled = true

// assertPostStep validates the network at the cycle boundary, after the
// commit phase has drained all staged outputs:
//
//   - the global credit-conservation equation (CheckInvariants): for every
//     inter-router link and VC, credits + occupancy + wire flits + wire
//     credits + pending grants = Depth;
//   - every virtual channel's state-machine consistency (checkVCState);
//   - every router's derived occupancy state (masks, occupied/dropping/
//     SA1-fault counts) against a recount from its VCs and arbiters
//     (core.Router.CheckOccupancy);
//   - the link registers and the inbound masks are empty: the link commit
//     pulled everything the local commit filed;
//   - every NI's maintained queued-packet count against a recount of its
//     queues (QueuedPackets).
//
// The third thing the link registers rely on — at most one crossing flit
// per (node, output port) per cycle — is checked where a second one
// would be lost, as the local commit files it (crossLink), in every
// build.
//
// A violation panics with the cycle and location: these are simulator
// bugs, never workload conditions, so failing loudly at the first bad
// cycle beats diagnosing the downstream wreckage.
func (n *Network) assertPostStep() {
	if err := n.CheckInvariants(); err != nil {
		n.assertFail(fmt.Sprintf("nocassert: cycle %d: %v", n.cycle, err))
	}
	for id, r := range n.routers {
		if err := r.CheckOccupancy(); err != nil {
			n.assertFail(fmt.Sprintf("nocassert: cycle %d: router %d: %v", n.cycle, id, err))
		}
		if m := n.inbound[id]; m != 0 {
			n.assertFail(fmt.Sprintf("nocassert: cycle %d: node %d inbound mask %#x left after the link commit", n.cycle, id, m))
		}
		for p := 0; p < n.ports; p++ {
			if f, c := n.flitReg[id*n.ports+p], n.creditReg[id*n.ports+p]; f != (core.FlitIn{}) || c != (creditRun{}) {
				n.assertFail(fmt.Sprintf("nocassert: cycle %d: node %d port %v link registers not emptied: flit %+v, credits %+v",
					n.cycle, id, topology.Port(p), f, c))
			}
		}
		if ni := n.nis[id]; ni.queued != ni.QueuedPackets() {
			n.assertFail(fmt.Sprintf("nocassert: cycle %d: NI %d counts %d queued packets, its queues hold %d", n.cycle, id, ni.queued, ni.QueuedPackets()))
		}
		cfg := r.Config()
		for p := 0; p < cfg.Ports; p++ {
			for v := 0; v < cfg.VCs; v++ {
				q := r.InputVC(topology.Port(p), v)
				if err := checkVCState(q); err != nil {
					n.assertFail(fmt.Sprintf("nocassert: cycle %d: router %d port %v vc%d: %v",
						n.cycle, id, topology.Port(p), v, err))
				}
			}
		}
	}
}

// assertFail records a flight-recorder dump (when one is attached) so the
// cycles leading up to the violation survive the crash, then panics with
// the violation message. The dump is retrievable from the recorder by a
// recovering caller, and the panic message points at it.
func (n *Network) assertFail(msg string) {
	if _, ok := n.TriggerFlightDump(msg); ok {
		panic(msg + " (flight-recorder dump captured)")
	}
	panic(msg)
}

// checkVCState validates one VC against the G state machine of Figure 3d
// as it must look at a cycle boundary:
//
//	Idle     — no packet: buffer empty, no downstream VC held
//	Routing  — head flit buffered, awaiting RC: no downstream VC yet
//	VCAlloc  — head flit buffered, competing in VA: no downstream VC yet
//	Active   — downstream VC allocated (buffer may be empty mid-packet)
//	Dropping — discarding a doomed packet: no downstream VC held (the
//	           buffer may be empty while body flits are still arriving)
func checkVCState(q *vc.VC) error {
	switch q.G {
	case vc.Idle:
		if !q.Empty() {
			return fmt.Errorf("Idle VC holds %d flits", q.Len())
		}
		if q.OutVC != vc.None {
			return fmt.Errorf("Idle VC holds downstream VC %d", q.OutVC)
		}
	case vc.Routing, vc.VCAlloc:
		if q.OutVC != vc.None {
			return fmt.Errorf("%v VC already holds downstream VC %d", q.G, q.OutVC)
		}
		if q.Empty() {
			return fmt.Errorf("%v VC has no buffered flit", q.G)
		}
		if f := q.Front(); !f.Kind.IsHead() {
			return fmt.Errorf("%v VC fronts a %v flit, want a head", q.G, f.Kind)
		}
	case vc.Active:
		if q.OutVC == vc.None {
			return fmt.Errorf("Active VC holds no downstream VC")
		}
	case vc.Dropping:
		if q.OutVC != vc.None {
			return fmt.Errorf("Dropping VC holds downstream VC %d", q.OutVC)
		}
	default:
		return fmt.Errorf("unknown G state %d", uint8(q.G))
	}
	return nil
}

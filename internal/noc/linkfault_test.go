// Network-level fault-tolerance suite: exhaustive single-fault
// reachability of the two-layer turn-model routing, 100% end-to-end
// delivery under any single link or router fault with retransmission
// enabled — on mesh and torus (wrap links included) — and clean
// termination on partitioned meshes.
package noc_test

import (
	"fmt"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// topoLinks enumerates each bidirectional link of a topology once, as
// (node, port) with port in {East, South}. On a torus this covers every
// ring link exactly once, wrap links included.
func topoLinks(tp topology.Topology) [][2]int {
	var links [][2]int
	for id := 0; id < tp.Nodes(); id++ {
		for _, p := range []topology.Port{topology.East, topology.South} {
			if _, ok := tp.Neighbor(id, p); ok {
				links = append(links, [2]int{id, int(p)})
			}
		}
	}
	return links
}

// testTopo builds the router-graph topology for a fault-suite case.
func testTopo(t *testing.T, topo string, w, h int) topology.Topology {
	t.Helper()
	tp, err := topology.New(topo, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func newFaultNet(t *testing.T, w, h int, retx noc.RetxConfig, workers int, tr noc.Traffic) *noc.Network {
	t.Helper()
	return newTopoFaultNet(t, w, h, "", retx, workers, tr)
}

// newTopoFaultNet is newFaultNet with an explicit topology family, for
// running the fault suites on the torus as well as the mesh. topo ""
// means mesh.
func newTopoFaultNet(t *testing.T, w, h int, topo string, retx noc.RetxConfig, workers int, tr noc.Traffic) *noc.Network {
	t.Helper()
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	n, err := noc.New(noc.Config{
		Width: w, Height: h, Topo: topo,
		Router: rc, Warmup: 0, Workers: workers, Retx: retx,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// faultTopologies enumerates the topology families the single-fault
// suites must cover: the mesh and the torus (whose tables add the
// wrap-link dateline rule).
var faultTopologies = []struct {
	name string
	topo string
}{
	{name: "mesh", topo: ""},
	{name: "torus", topo: "torus"},
}

// TestExhaustiveSingleFaultReachability kills every link and every
// router of a 4x4 router grid in turn — on mesh and torus — and
// asserts the routing tables keep every surviving (src, dst) pair
// connected — the turn model loses no connectivity a single fault
// leaves physically intact.
func TestExhaustiveSingleFaultReachability(t *testing.T) {
	for _, dim := range [][2]int{{4, 4}, {2, 2}, {4, 2}} {
		for _, tc := range faultTopologies {
			w, h, tc := dim[0], dim[1], tc
			t.Run(fmt.Sprintf("%s-%dx%d", tc.name, w, h), func(t *testing.T) {
				n := newTopoFaultNet(t, w, h, tc.topo, noc.RetxConfig{}, 1, nil)
				defer n.Close()
				tp := n.Topo()
				nodes := tp.Nodes()
				checkAllPairs := func(desc string, dead int) {
					for src := 0; src < nodes; src++ {
						for dst := 0; dst < nodes; dst++ {
							if src == dead || dst == dead {
								continue
							}
							if !n.Reachable(src, dst) {
								t.Errorf("%s: %d -> %d unreachable", desc, src, dst)
							}
						}
					}
				}
				for _, lk := range topoLinks(tp) {
					id, p := lk[0], topology.Port(lk[1])
					if err := n.SetLinkFault(id, p, true); err != nil {
						t.Fatal(err)
					}
					checkAllPairs(fmt.Sprintf("link %d:%v dead", id, p), -1)
					if err := n.SetLinkFault(id, p, false); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; id < nodes; id++ {
					if err := n.SetRouterFault(id, true); err != nil {
						t.Fatal(err)
					}
					checkAllPairs(fmt.Sprintf("router %d dead", id), id)
					for other := 0; other < nodes; other++ {
						if other != id && n.Reachable(other, id) {
							t.Errorf("router %d dead: %d -> %d reported reachable", id, other, id)
						}
					}
					if err := n.SetRouterFault(id, false); err != nil {
						t.Fatal(err)
					}
				}
				// All faults repaired: back on the baseline fast path.
				checkAllPairs("fault-free", -1)
			})
		}
	}
}

// TestSetFaultValidation covers the error paths of the fault setters.
func TestSetFaultValidation(t *testing.T) {
	n := newFaultNet(t, 4, 4, noc.RetxConfig{}, 1, nil)
	defer n.Close()
	if err := n.SetLinkFault(-1, topology.East, true); err == nil {
		t.Error("negative router id accepted")
	}
	if err := n.SetLinkFault(16, topology.East, true); err == nil {
		t.Error("out-of-range router id accepted")
	}
	if err := n.SetLinkFault(5, topology.Local, true); err == nil {
		t.Error("local port accepted as a link")
	}
	if err := n.SetLinkFault(0, topology.North, true); err == nil {
		t.Error("mesh-edge port accepted as a link")
	}
	if err := n.SetRouterFault(99, true); err == nil {
		t.Error("out-of-range router id accepted")
	}
	// On a torus the same grid-edge port carries a wrap link, so the
	// fault must be accepted there; a size-1 dimension still has none.
	tor := newTopoFaultNet(t, 4, 4, "torus", noc.RetxConfig{}, 1, nil)
	defer tor.Close()
	if err := tor.SetLinkFault(0, topology.North, true); err != nil {
		t.Errorf("torus wrap link rejected: %v", err)
	}
	if err := tor.SetLinkFault(0, topology.North, false); err != nil {
		t.Error(err)
	}
	flatTor := newTopoFaultNet(t, 4, 1, "torus", noc.RetxConfig{}, 1, nil)
	defer flatTor.Close()
	if err := flatTor.SetLinkFault(0, topology.North, true); err == nil {
		t.Error("size-1 torus dimension accepted a link fault")
	}
	// Fault-aware routing needs two VCs per class to form its layers.
	rc := router.DefaultConfig()
	rc.VCs = 2 // two classes -> one VC each
	small := noc.MustNew(noc.Config{Width: 4, Height: 4, Router: rc}, nil)
	defer small.Close()
	if err := small.SetLinkFault(5, topology.East, true); err == nil {
		t.Error("single-VC-per-class config accepted for fault-aware routing")
	}
}

// TestSetFaultErrorLeavesStateUntouched pins that a kill the network
// cannot route around (one VC per message class, so no room for the two
// routing layers) is refused before anything is written: the link and
// router still report alive and the state hash has not moved. (A torus
// needs the same two VCs per class for its dateline and refuses this
// configuration at construction, so the mesh is the family that can
// reach the error.)
func TestSetFaultErrorLeavesStateUntouched(t *testing.T) {
	rc := router.DefaultConfig()
	rc.VCs = 2 // two classes -> one VC each
	if _, err := noc.New(noc.Config{Width: 4, Height: 4, Topo: "torus", Router: rc}, nil); err == nil {
		t.Error("torus built with one VC per class: add it to the families below")
	}
	for _, topo := range []string{"mesh"} {
		n := noc.MustNew(noc.Config{Width: 4, Height: 4, Topo: topo, Router: rc}, nil)
		before := n.StateHash()
		if err := n.SetLinkFault(5, topology.East, true); err == nil {
			t.Errorf("%s: link kill accepted with one VC per class", topo)
		}
		if err := n.SetRouterFault(10, true); err == nil {
			t.Errorf("%s: router kill accepted with one VC per class", topo)
		}
		if n.LinkFaulty(5, topology.East) || n.LinkFaulty(6, topology.West) {
			t.Errorf("%s: rejected link kill left the link marked dead", topo)
		}
		if n.RouterFaulty(10) {
			t.Errorf("%s: rejected router kill left the router marked dead", topo)
		}
		if after := n.StateHash(); after != before {
			t.Errorf("%s: rejected kills moved the state hash %#x -> %#x", topo, before, after)
		}
		// Repairs change nothing here and need no layers: still accepted.
		if err := n.SetLinkFault(5, topology.East, false); err != nil {
			t.Errorf("%s: repair of a live link: %v", topo, err)
		}
		n.Close()
	}
}

// TestRedundantFaultCallsChangeNothing pins that killing what is already
// dead, or repairing what is alive, returns before any rebuild: no
// allocation, and a run peppered with such calls every cycle ends in
// the same state, with the same deliveries, as one without them.
func TestRedundantFaultCallsChangeNothing(t *testing.T) {
	const stop = 400
	run := func(redundant bool) (uint64, uint64) {
		src := traffic.NewSynthetic(16, 0.04, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 41)
		src.StopAt(stop)
		n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 250, MaxRetries: 5}, 1, src)
		defer n.Close()
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(n.SetLinkFault(5, topology.East, true))
		must(n.SetRouterFault(15, true))
		again := func() {
			must(n.SetLinkFault(5, topology.East, true))
			must(n.SetLinkFault(6, topology.West, true)) // the same link, named from its other end
			must(n.SetRouterFault(15, true))
			must(n.SetLinkFault(9, topology.South, false))
			must(n.SetRouterFault(0, false))
		}
		if redundant {
			if got := testing.AllocsPerRun(10, again); got != 0 {
				t.Errorf("redundant fault calls allocate %.0f times, want 0 (no rebuild)", got)
			}
			n.AddHook(func(sim.Cycle) { again() })
		}
		n.Run(stop)
		if !n.Drain(stop + 60000) {
			t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
		}
		return n.StateHash(), n.Stats().Ejected()
	}
	hash, ejected := run(false)
	if h, e := run(true); h != hash || e != ejected {
		t.Errorf("redundant fault calls changed the run: hash %#x -> %#x, ejected %d -> %d", hash, h, ejected, e)
	}
}

// checkFullDelivery asserts the end-to-end reliability contract after a
// drained run: every unique offered packet was delivered exactly once,
// and every extra copy created by retransmission is accounted for as a
// drop or a suppressed duplicate.
func checkFullDelivery(t *testing.T, n *noc.Network, desc string) {
	t.Helper()
	s := n.Stats()
	unique := s.Created() - s.Retransmits()
	if s.Ejected() != unique {
		t.Errorf("%s: delivered %d of %d unique packets (created %d, retransmits %d, dropped %d, duplicates %d)",
			desc, s.Ejected(), unique, s.Created(), s.Retransmits(), s.Dropped(), s.Duplicates())
	}
	if s.Dropped()+s.Duplicates() != s.Retransmits() {
		t.Errorf("%s: accounting leak: dropped %d + duplicates %d != retransmits %d",
			desc, s.Dropped(), s.Duplicates(), s.Retransmits())
	}
	if dr := s.DeliveryRatio(); dr != 1.0 {
		t.Errorf("%s: delivery ratio %v, want 1", desc, dr)
	}
}

// TestSingleLinkFaultFullDelivery kills each link of a 4x4 router grid
// mid-run in turn, on the mesh and the torus (whose link set includes the wrap links). Rerouting plus NI
// retransmission must deliver 100% of the offered packets: the copies
// lost at the dying link are retransmitted over surviving paths, and
// any duplicates are suppressed at the sinks.
func TestSingleLinkFaultFullDelivery(t *testing.T) {
	const (
		faultAt = 300
		stop    = 700
	)
	retx := noc.RetxConfig{Timeout: 250, MaxRetries: 5}
	for _, tc := range faultTopologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			links := topoLinks(testTopo(t, tc.topo, 4, 4))
			if testing.Short() {
				links = links[:4]
			}
			for _, lk := range links {
				id, p := lk[0], topology.Port(lk[1])
				desc := fmt.Sprintf("%s link %d:%v", tc.name, id, p)
				src := traffic.NewSynthetic(16, 0.04, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), uint64(37+id))
				src.StopAt(stop)
				n := newTopoFaultNet(t, 4, 4, tc.topo, retx, 1, src)
				n.AddHook(func(c sim.Cycle) {
					if c == faultAt {
						if err := n.SetLinkFault(id, p, true); err != nil {
							t.Errorf("%s: %v", desc, err)
						}
					}
				})
				n.Run(stop)
				if !n.Drain(stop + 60000) {
					t.Fatalf("%s: did not drain: %d in flight", desc, n.Stats().InFlight())
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				checkFullDelivery(t, n, desc)
				n.Close()
			}
		})
	}
}

// avoidNode filters a workload so no packet originates or terminates at
// one node, for router-fault runs where that node is about to die.
type avoidNode struct {
	inner noc.Traffic
	node  int
}

func (a *avoidNode) Offered(node int, c sim.Cycle) []*flit.Packet {
	if node == a.node {
		return nil
	}
	ps := a.inner.Offered(node, c)
	kept := ps[:0]
	for _, p := range ps {
		if p.Dst != a.node {
			kept = append(kept, p)
		}
	}
	return kept
}

func (a *avoidNode) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	return a.inner.OnEject(p, c)
}

// TestSingleRouterFaultFullDelivery kills each router of a 4x4 router
// grid mid-run in turn — on the mesh and the torus — with a workload that never sources or sinks at the dying
// node.
// Packets transiting the dead router are lost and must be recovered by
// retransmission over detour paths: 100% delivery.
func TestSingleRouterFaultFullDelivery(t *testing.T) {
	const (
		faultAt = 300
		stop    = 700
	)
	retx := noc.RetxConfig{Timeout: 250, MaxRetries: 5}
	for _, tc := range faultTopologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ids := []int{0, 1, 5, 6, 10, 15} // corners, edges and interior
			if testing.Short() {
				ids = ids[:2]
			}
			for _, id := range ids {
				desc := fmt.Sprintf("%s router %d", tc.name, id)
				inner := traffic.NewSynthetic(16, 0.04, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), uint64(91+id))
				inner.StopAt(stop)
				n := newTopoFaultNet(t, 4, 4, tc.topo, retx, 1, &avoidNode{inner: inner, node: id})
				n.AddHook(func(c sim.Cycle) {
					if c == faultAt {
						if err := n.SetRouterFault(id, true); err != nil {
							t.Errorf("%s: %v", desc, err)
						}
					}
				})
				n.Run(stop)
				if !n.Drain(stop + 60000) {
					t.Fatalf("%s: did not drain: %d in flight", desc, n.Stats().InFlight())
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				checkFullDelivery(t, n, desc)
				n.Close()
			}
		})
	}
}

// TestDeadDestinationDrops pins the give-up path: packets to a dead
// router are dropped with the drop counted, never delivered, and the
// network still drains.
func TestDeadDestinationDrops(t *testing.T) {
	n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 100, MaxRetries: 2}, 1, nil)
	defer n.Close()
	if err := n.SetRouterFault(5, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		n.Inject(i%4, &flit.Packet{Dst: 5, Class: flit.Request, Size: 1})
	}
	n.Inject(5, &flit.Packet{Dst: 9, Class: flit.Request, Size: 1}) // dead source
	if !n.Drain(5000) {
		t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
	}
	s := n.Stats()
	if s.Ejected() != 0 {
		t.Errorf("%d packets delivered to/from a dead router", s.Ejected())
	}
	if s.Dropped() != s.Created() {
		t.Errorf("dropped %d of %d created", s.Dropped(), s.Created())
	}
}

// TestPartitionedMeshTermination severs a corner node from the rest of
// the mesh mid-run. Undeliverable traffic must be dropped (bounded by
// MaxRetries), the run must drain at every worker count, and the
// outcome must stay bit-exact between serial and parallel stepping.
func TestPartitionedMeshTermination(t *testing.T) {
	const (
		faultAt = 200
		stop    = 600
	)
	run := func(workers int) (summary string, dropped uint64) {
		src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(2), 4242)
		src.StopAt(stop)
		n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 150, MaxRetries: 2}, workers, src)
		defer n.Close()
		n.AddHook(func(c sim.Cycle) {
			if c != faultAt {
				return
			}
			// Node 0 is the NW corner: its only links go East and South.
			if err := n.SetLinkFault(0, topology.East, true); err != nil {
				t.Error(err)
			}
			if err := n.SetLinkFault(0, topology.South, true); err != nil {
				t.Error(err)
			}
		})
		n.Run(stop)
		if !n.Drain(stop + 60000) {
			t.Fatalf("workers=%d: partitioned mesh did not drain: %d in flight, %d retx pending",
				workers, n.Stats().InFlight(), n.Stats().Created())
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		s := n.Stats()
		if s.Created() != s.Ejected()+s.Dropped()+s.Duplicates() {
			t.Fatalf("workers=%d: accounting leak: created %d != ejected %d + dropped %d + duplicates %d",
				workers, s.Created(), s.Ejected(), s.Dropped(), s.Duplicates())
		}
		return s.Summary(), s.Dropped()
	}
	ref, refDropped := run(1)
	if refDropped == 0 {
		t.Fatal("partition produced no drops; the case is not exercising the give-up path")
	}
	if got, _ := run(8); got != ref {
		t.Errorf("partitioned run diverged between workers=1 and workers=8:\n--- serial ---\n%s--- parallel ---\n%s", ref, got)
	}
}

// TestRerouteCountersAndRepair asserts rerouting is visible in the
// router counters while a fault is present, and that repairing the last
// fault restores pure XY routing (no further reroutes).
func TestRerouteCountersAndRepair(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(1), 7)
	src.StopAt(1200)
	n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 250}, 1, src)
	defer n.Close()
	if err := n.SetLinkFault(5, topology.East, true); err != nil {
		t.Fatal(err)
	}
	n.Run(600)
	reroutes := func() (total uint64) {
		for id := 0; id < 16; id++ {
			total += n.Router(id).Counters.Reroutes
		}
		return
	}
	mid := reroutes()
	if mid == 0 {
		t.Fatal("no reroutes recorded with a dead link on a loaded mesh")
	}
	if err := n.SetLinkFault(5, topology.East, false); err != nil {
		t.Fatal(err)
	}
	n.Run(600)
	if !n.Drain(60000) {
		t.Fatalf("did not drain after repair: %d in flight", n.Stats().InFlight())
	}
	checkFullDelivery(t, n, "repair")
}

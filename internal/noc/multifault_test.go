// Multi-fault coverage of the reachability oracle: Reachable must stay
// sound (never promise a path the surviving graph lacks) under fault
// combinations the single-fault suites never form, and kill/repair
// sequences must land back on exactly the fault-free behavior.
package noc_test

import (
	"fmt"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// physConnected computes ground-truth physical connectivity by BFS over
// the surviving links, as reported by the network's own fault state
// (LinkFaulty folds dead endpoints into dead links).
func physConnected(n *noc.Network) [][]bool {
	tp := n.Topo()
	nodes := tp.Nodes()
	conn := make([][]bool, nodes)
	for src := 0; src < nodes; src++ {
		conn[src] = make([]bool, nodes)
		if n.RouterFaulty(src) {
			continue
		}
		queue := []int{src}
		conn[src][src] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for p := topology.North; p <= topology.West; p++ {
				nb, ok := tp.Neighbor(cur, p)
				if !ok || conn[src][nb] || n.LinkFaulty(cur, p) {
					continue
				}
				conn[src][nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return conn
}

// checkReachableSound asserts Reachable never claims a pair the
// physical graph cannot serve, and returns how many pairs it serves.
func checkReachableSound(t *testing.T, n *noc.Network, desc string) int {
	t.Helper()
	conn := physConnected(n)
	nodes := n.Topo().Nodes()
	served := 0
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if !n.Reachable(src, dst) {
				continue
			}
			served++
			if !conn[src][dst] {
				t.Errorf("%s: Reachable(%d, %d) true but no physical path survives", desc, src, dst)
			}
		}
	}
	return served
}

// TestMultiFaultReachableSoundness forms every pair of simultaneous
// faults — link+link, link+router and router+router — on a 4x4 mesh and
// asserts the reachability oracle stays sound against BFS ground truth,
// then repairs the pair and requires full connectivity back.
func TestMultiFaultReachableSoundness(t *testing.T) {
	n := newFaultNet(t, 4, 4, noc.RetxConfig{}, 1, nil)
	defer n.Close()
	links := topoLinks(n.Topo())
	nodes := n.Topo().Nodes()

	type faultOp struct {
		set  func(bool) error
		desc string
	}
	var ops []faultOp
	for _, lk := range links {
		id, p := lk[0], topology.Port(lk[1])
		ops = append(ops, faultOp{
			set:  func(v bool) error { return n.SetLinkFault(id, p, v) },
			desc: fmt.Sprintf("link %d:%v", id, p),
		})
	}
	for id := 0; id < nodes; id++ {
		id := id
		ops = append(ops, faultOp{
			set:  func(v bool) error { return n.SetRouterFault(id, v) },
			desc: fmt.Sprintf("router %d", id),
		})
	}

	full := nodes * nodes
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			desc := ops[i].desc + " + " + ops[j].desc
			if err := ops[i].set(true); err != nil {
				t.Fatal(err)
			}
			if err := ops[j].set(true); err != nil {
				t.Fatal(err)
			}
			checkReachableSound(t, n, desc)
			if err := ops[i].set(false); err != nil {
				t.Fatal(err)
			}
			if err := ops[j].set(false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if served := checkReachableSound(t, n, "all repaired"); served != full {
		t.Errorf("after repairing every pair: %d of %d pairs reachable", served, full)
	}
}

// reachFilter drops offered packets whose (src, dst) the provided
// predicate rejects, so delivery assertions only cover pairs the
// network claims to serve.
type reachFilter struct {
	inner noc.Traffic
	keep  func(src, dst int) bool
}

func (f *reachFilter) Offered(node int, c sim.Cycle) []*flit.Packet {
	ps := f.inner.Offered(node, c)
	kept := ps[:0]
	for _, p := range ps {
		if f.keep(node, p.Dst) {
			kept = append(kept, p)
		}
	}
	return kept
}

func (f *reachFilter) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	return f.inner.OnEject(p, c)
}

// TestMultiFaultFullDelivery loads a 4x4 mesh carrying three
// simultaneous faults (two links and a router) with traffic restricted
// to the pairs Reachable still serves, and requires 100% delivery: the
// oracle's promises must be kept, not just sound.
func TestMultiFaultFullDelivery(t *testing.T) {
	const stop = 700
	retx := noc.RetxConfig{Timeout: 250, MaxRetries: 5}
	inner := traffic.NewSynthetic(16, 0.04, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 2024)
	inner.StopAt(stop)
	var n *noc.Network
	n = newFaultNet(t, 4, 4, retx, 1, &reachFilter{
		inner: inner,
		keep:  func(src, dst int) bool { return src != dst && n.Reachable(src, dst) },
	})
	defer n.Close()
	if err := n.SetLinkFault(5, topology.East, true); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkFault(9, topology.South, true); err != nil {
		t.Fatal(err)
	}
	if err := n.SetRouterFault(15, true); err != nil {
		t.Fatal(err)
	}
	served := checkReachableSound(t, n, "2 links + 1 router")
	if served == 0 {
		t.Fatal("no reachable pairs under the triple fault; the case is vacuous")
	}
	n.Run(stop)
	if !n.Drain(stop + 60000) {
		t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkFullDelivery(t, n, "triple fault")
}

// TestFaultRepairSequence walks a kill/verify/repair/verify sequence —
// accumulate a link fault, then a router fault, then repair them one at
// a time — checking the reachability oracle at every step and, once
// healed, that traffic behaves exactly as on a never-faulted network.
func TestFaultRepairSequence(t *testing.T) {
	n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 250, MaxRetries: 5}, 1, nil)
	defer n.Close()
	nodes := n.Topo().Nodes()
	full := nodes * nodes

	// Kill a link: single link fault must cost no connectivity.
	if err := n.SetLinkFault(5, topology.East, true); err != nil {
		t.Fatal(err)
	}
	if served := checkReachableSound(t, n, "link 5:E"); served != full {
		t.Errorf("single link fault lost connectivity: %d of %d pairs", served, full)
	}

	// Kill a router on top: exactly the dead router's pairs disappear.
	if err := n.SetRouterFault(10, true); err != nil {
		t.Fatal(err)
	}
	want := (nodes - 1) * (nodes - 1)
	if served := checkReachableSound(t, n, "link 5:E + router 10"); served != want {
		t.Errorf("link+router faults: %d pairs reachable, want %d (all pairs avoiding the dead router)", served, want)
	}
	for other := 0; other < nodes; other++ {
		if other != 10 && n.Reachable(other, 10) {
			t.Errorf("dead router 10 reported reachable from %d", other)
		}
	}

	// Repair the link: still exactly the router-fault picture.
	if err := n.SetLinkFault(5, topology.East, false); err != nil {
		t.Fatal(err)
	}
	if served := checkReachableSound(t, n, "router 10 only"); served != want {
		t.Errorf("after link repair: %d pairs reachable, want %d", served, want)
	}

	// Repair the router: full connectivity, and a loaded run must be
	// indistinguishable from a never-faulted network.
	if err := n.SetRouterFault(10, false); err != nil {
		t.Fatal(err)
	}
	if served := checkReachableSound(t, n, "healed"); served != full {
		t.Errorf("after full repair: %d of %d pairs reachable", served, full)
	}

	// A network that went through the same kill/repair cycle before
	// carrying traffic must behave bit-identically to one that never
	// saw a fault: repair leaves no residue in the routing state.
	const stop = 500
	run := func(faultCycle bool) string {
		src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(2), 909)
		src.StopAt(stop)
		n := newFaultNet(t, 4, 4, noc.RetxConfig{Timeout: 250, MaxRetries: 5}, 1, src)
		defer n.Close()
		if faultCycle {
			for _, v := range []bool{true, false} {
				if err := n.SetLinkFault(5, topology.East, v); err != nil {
					t.Fatal(err)
				}
				if err := n.SetRouterFault(10, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Run(stop)
		if !n.Drain(stop + 60000) {
			t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
		}
		checkFullDelivery(t, n, "healed run")
		return n.Stats().Summary()
	}
	if healed, fresh := run(true), run(false); healed != fresh {
		t.Errorf("repaired network diverges from a never-faulted one:\n--- repaired ---\n%s--- fresh ---\n%s", healed, fresh)
	}
}

// TestTorusFaultRepairSequence is TestFaultRepairSequence on a 4x4
// torus: kill a wrap link and a router, verify the reachability oracle
// at every step, repair both, and require a healed network to behave
// bit-identically to a never-faulted one — which also proves repair
// reinstalls the dateline RouteFn fast path — at workers 1, 2, 4 and 8.
func TestTorusFaultRepairSequence(t *testing.T) {
	n := newTopoFaultNet(t, 4, 4, "torus", noc.RetxConfig{Timeout: 250, MaxRetries: 5}, 1, nil)
	defer n.Close()
	nodes := n.Topo().Nodes()
	full := nodes * nodes

	// Kill the row-0 wrap link (router 3 is the NE corner; its East
	// link wraps to router 0): no connectivity may be lost.
	if !n.Topo().Wrap(3, topology.East) {
		t.Fatal("expected 3:E to be a wrap link on a 4x4 torus")
	}
	if err := n.SetLinkFault(3, topology.East, true); err != nil {
		t.Fatal(err)
	}
	if served := checkReachableSound(t, n, "wrap link 3:E"); served != full {
		t.Errorf("single wrap-link fault lost connectivity: %d of %d pairs", served, full)
	}

	// Kill a router on top: exactly the dead router's pairs disappear.
	if err := n.SetRouterFault(10, true); err != nil {
		t.Fatal(err)
	}
	want := (nodes - 1) * (nodes - 1)
	if served := checkReachableSound(t, n, "wrap link 3:E + router 10"); served != want {
		t.Errorf("link+router faults: %d pairs reachable, want %d", served, want)
	}

	// Repair both: full connectivity back.
	if err := n.SetLinkFault(3, topology.East, false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetRouterFault(10, false); err != nil {
		t.Fatal(err)
	}
	if served := checkReachableSound(t, n, "healed"); served != full {
		t.Errorf("after full repair: %d of %d pairs reachable", served, full)
	}

	// A torus that went through the kill/repair cycle must behave
	// bit-identically to a fresh one, at every worker count.
	const stop = 500
	run := func(faultCycle bool, workers int) string {
		src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(2), 909)
		src.StopAt(stop)
		n := newTopoFaultNet(t, 4, 4, "torus", noc.RetxConfig{Timeout: 250, MaxRetries: 5}, workers, src)
		defer n.Close()
		if faultCycle {
			for _, v := range []bool{true, false} {
				if err := n.SetLinkFault(3, topology.East, v); err != nil {
					t.Fatal(err)
				}
				if err := n.SetRouterFault(10, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Run(stop)
		if !n.Drain(stop + 60000) {
			t.Fatalf("workers=%d: did not drain: %d in flight", workers, n.Stats().InFlight())
		}
		checkFullDelivery(t, n, "healed torus run")
		return n.Stats().Summary()
	}
	fresh := run(false, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		if healed := run(true, workers); healed != fresh {
			t.Errorf("workers=%d: repaired torus diverges from a fresh one:\n--- repaired ---\n%s--- fresh ---\n%s", workers, healed, fresh)
		}
	}
}

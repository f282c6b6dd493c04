package noc

import (
	"fmt"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// TestObsCountersConserveHops derives the per-hop counters from what was
// delivered and the route function alone, reading neither obs nor
// core.Counters for the expected values. On a fault-free mesh or torus
// routing is deterministic, so a delivered packet of S flits from s to d
// took exactly the hops Topo().Route walks from s to d. At each router on
// the walk, entered through port in and left through port out (Local at
// both ends), the packet's S flits each won one SA grant at in and
// crossed the crossbar and the outgoing link (ejection on Local) at out,
// and its head had one route computed and one VC allocated at in. Run
// and drained, every (router, port) series of those five kinds in the
// registry must equal that sum exactly.
func TestObsCountersConserveHops(t *testing.T) {
	for _, side := range []int{4, 8} {
		for _, topo := range []string{"mesh", "torus"} {
			for _, pattern := range []string{"uniform", "transpose"} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%s-%dx%d-%s-w%d", topo, side, side, pattern, workers)
					t.Run(name, func(t *testing.T) { checkConserveHops(t, topo, side, pattern, workers) })
				}
			}
		}
	}
}

func checkConserveHops(t *testing.T, topo string, side int, pattern string, workers int) {
	const horizon sim.Cycle = 1500
	tp, err := topology.New(topo, side, side)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tp.Nodes()
	dest, rate := traffic.Uniform(nodes), 0.2/float64(side)
	if pattern == "transpose" {
		dest = traffic.Transpose(tp)
	}
	src := traffic.NewSynthetic(nodes, rate, dest, traffic.Bimodal(1, 5, 0.6), uint64(side)*7+uint64(workers))
	src.StopAt(horizon)
	tap := &ejections{Traffic: src}
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	o := obs.New(0)
	rc.Obs = o
	n := MustNew(Config{Width: side, Height: side, Topo: topo, Router: rc, Workers: workers}, tap)
	defer n.Close()
	n.Run(horizon)
	if !n.Drain(horizon + 20000) {
		t.Fatalf("drain timed out with %d packets in flight", n.Stats().InFlight())
	}
	if len(tap.pkts) == 0 {
		t.Fatal("nothing was delivered")
	}

	want := map[obs.Key]uint64{}
	add := func(k obs.Kind, node int, port topology.Port, v int) {
		want[obs.Key{Kind: k, Router: int32(node), Port: int8(port), VC: obs.NoVC}] += uint64(v)
	}
	for _, p := range tap.pkts {
		cur, in := p.Src, topology.Local
		for hops := 0; ; hops++ {
			if hops > nodes {
				t.Fatalf("route from %d to %d does not arrive", p.Src, p.Dst)
			}
			out := n.Topo().Route(cur, p.Dst)
			add(obs.KRCComputes, cur, in, 1)
			add(obs.KVAAllocs, cur, in, 1)
			add(obs.KSAGrants, cur, in, p.Size)
			add(obs.KFlitsRouted, cur, out, p.Size)
			add(obs.KLinkFlits, cur, out, p.Size)
			if out == topology.Local {
				break
			}
			next, ok := n.Topo().Neighbor(cur, out)
			if !ok {
				t.Fatalf("route from %d to %d leaves %d through %v, which has no link", p.Src, p.Dst, cur, out)
			}
			cur, in = next, out.Opposite()
		}
	}

	seen := 0
	for _, s := range o.Metrics.Snapshot() {
		switch s.Key.Kind {
		case obs.KRCComputes, obs.KVAAllocs, obs.KSAGrants, obs.KFlitsRouted, obs.KLinkFlits:
		default:
			continue
		}
		seen++
		if got := uint64(s.Value); got != want[s.Key] {
			t.Errorf("%v of router %d port %d = %d, want %d from %d delivered packets",
				s.Key.Kind, s.Key.Router, s.Key.Port, got, want[s.Key], len(tap.pkts))
		}
	}
	if wantSeries := 5 * nodes * rc.Ports; seen != wantSeries {
		t.Errorf("Snapshot lists %d per-hop series, want %d (five kinds, every router and port)", seen, wantSeries)
	}
}

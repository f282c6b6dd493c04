package noc_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// TestNodeRecordRestoresSection saves every node of a loaded network
// into its own NodeRecord and restores the records, node by node, into
// two networks standing at other cycles: the source itself, stepped on,
// and a fresh network that is behind it and fault free. Each must then
// encode the saved state exactly, and its next 50 steps must encode
// what a network restored from a whole Snapshot does and add the same
// latencies to its statistics, timestamps having moved with the
// clock. The retx case
// kills a link mid-run, so retransmission timers are pending when the
// records are taken and fire after the restore, at deadlines moved with
// the clock, and the fresh network rebuilds its routing tables from the
// restored fault sets.
func TestNodeRecordRestoresSection(t *testing.T) {
	type tc struct {
		topo      string
		w, h      int
		protected bool
		retx      noc.RetxConfig
		killAt    sim.Cycle
		name      string
	}
	var cases []tc
	for _, topo := range []string{"mesh", "torus"} {
		for _, size := range []int{2, 3} {
			for _, protected := range []bool{false, true} {
				design := "baseline"
				if protected {
					design = "protected"
				}
				cases = append(cases, tc{topo: topo, w: size, h: size, protected: protected,
					name: fmt.Sprintf("%s-%dx%d-%s", topo, size, size, design)})
			}
		}
	}
	cases = append(cases, tc{topo: "mesh", w: 3, h: 3, protected: true, killAt: 30,
		retx: noc.RetxConfig{Timeout: 24, MaxRetries: 3}, name: "mesh-3x3-retx"})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rc := router.DefaultConfig()
			rc.FaultTolerant = c.protected
			cfg := noc.Config{Width: c.w, Height: c.h, Topo: c.topo, Router: rc, Workers: 1, Retx: c.retx}
			build := func(tr noc.Traffic) *noc.Network {
				n, err := noc.New(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Close)
				return n
			}
			nodes := c.w * c.h
			const stop = 40
			src := traffic.NewSynthetic(nodes, 0.3, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 5)
			src.StopAt(stop)
			n := build(src)
			if c.killAt > 0 {
				n.AddHook(func(cy sim.Cycle) {
					if cy == c.killAt {
						if err := n.SetLinkFault(4, topology.East, true); err != nil {
							t.Error(err)
						}
					}
				})
			}
			n.Run(stop + 3)
			if n.Stats().InFlight() == 0 {
				t.Fatal("network drained before the save; the case exercises nothing")
			}
			if c.retx.Timeout > 0 && n.PendingRetx() == 0 {
				t.Fatal("no retransmission timer pending at the save")
			}

			want := n.AppendCanonical(nil)
			snap := n.Snapshot()
			recs := make([]*noc.NodeRecord, nodes)
			for id := range recs {
				recs[id] = n.SaveNode(id)
			}
			if !bytes.Equal(n.AppendCanonical(nil), want) {
				t.Fatal("SaveNode changed the network")
			}

			n.Run(9)
			behind := build(nil)
			behind.Run(5)
			ref := build(nil)
			ref.Restore(snap)
			targets := []*struct {
				name   string
				n      *noc.Network
				before latencies
			}{{name: "stepped-on source", n: n}, {name: "fresh network", n: behind}}
			refBefore := latenciesOf(ref)
			for _, tg := range targets {
				tg.before = latenciesOf(tg.n)
				for id, r := range recs {
					tg.n.RestoreNode(id, r)
				}
				if !bytes.Equal(tg.n.AppendCanonical(nil), want) {
					t.Fatalf("%s: restored nodes do not encode the saved state", tg.name)
				}
			}
			for step := 1; step <= 50; step++ {
				ref.Step()
				exact := ref.AppendCanonical(nil)
				for _, tg := range targets {
					tg.n.Step()
					if !bytes.Equal(tg.n.AppendCanonical(nil), exact) {
						t.Fatalf("%s: step %d after the restore diverges from a whole-snapshot restore", tg.name, step)
					}
				}
			}
			added := latenciesOf(ref).since(refBefore)
			if added.ejected == 0 {
				t.Fatal("nothing ejected after the restore")
			}
			for _, tg := range targets {
				if got := latenciesOf(tg.n).since(tg.before); got != added {
					t.Errorf("%s: the 50 steps recorded %+v, a whole-snapshot restore %+v", tg.name, got, added)
				}
			}
			if c.retx.Timeout > 0 && ref.Stats().Retransmits() == 0 {
				t.Error("no retransmission fired after the restore")
			}
		})
	}
}

// TestNodeQuietKeepsSection steps lightly loaded networks and checks
// the model checker's tick rule: a node NodeQuiet before a Step and
// after it encodes the section it had. The retx case kills a link, so
// retransmission buffers fill and timers run, and sets an SA stage-1
// fault, whose bypass rotation keeps an empty router from being
// quiescent. Each case must see nodes kept, and nodes quiet before a
// Step that a neighbour's traffic made not quiet after it.
func TestNodeQuietKeepsSection(t *testing.T) {
	cases := []struct {
		name      string
		topo      string
		protected bool
		retx      noc.RetxConfig
	}{
		{"mesh-3x3-protected-retx", "mesh", true, noc.RetxConfig{Timeout: 24, MaxRetries: 3}},
		{"torus-3x3-baseline", "torus", false, noc.RetxConfig{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rc := router.DefaultConfig()
			rc.FaultTolerant = c.protected
			n, err := noc.New(noc.Config{Width: 3, Height: 3, Topo: c.topo, Router: rc, Workers: 1, Retx: c.retx},
				traffic.NewSynthetic(9, 0.05, traffic.Uniform(9), traffic.Bimodal(1, 5, 0.6), 11))
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if c.retx.Timeout > 0 {
				n.Router(2).SetSA1Fault(topology.West, true)
				n.AddHook(func(cy sim.Cycle) {
					if cy == 60 {
						if err := n.SetLinkFault(4, topology.East, true); err != nil {
							t.Error(err)
						}
					}
				})
			}
			before := make([][]byte, 9)
			quiet := make([]bool, 9)
			var kept, woken int
			for cy := 0; cy < 600; cy++ {
				for id := range before {
					quiet[id] = n.NodeQuiet(id)
					before[id] = n.AppendCanonicalNode(before[id][:0], id)
				}
				n.Step()
				for id, q := range quiet {
					switch {
					case !q:
					case !n.NodeQuiet(id):
						woken++
					default:
						kept++
						if after := n.AppendCanonicalNode(nil, id); !bytes.Equal(after, before[id]) {
							t.Fatalf("cycle %d: node %d was quiet before and after the step, but its section changed", cy, id)
						}
					}
				}
			}
			if kept < 20 || woken < 20 {
				t.Errorf("%d node-steps kept and %d woken by a neighbour in 600 cycles; the check needs both", kept, woken)
			}
		})
	}
}

// latencies is what a collector has recorded of ejections: their count
// and the sums of their total and in-network latencies.
type latencies struct{ ejected, total, network uint64 }

func latenciesOf(n *noc.Network) latencies {
	st := n.Stats()
	m := float64(st.Measured())
	return latencies{st.Ejected(), uint64(math.Round(st.AvgLatency() * m)), uint64(math.Round(st.AvgNetworkLatency() * m))}
}

func (l latencies) since(o latencies) latencies {
	return latencies{l.ejected - o.ejected, l.total - o.total, l.network - o.network}
}

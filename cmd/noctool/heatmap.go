package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// runHeatmap runs a simulation with the windowed link-utilization ring
// attached and renders the result: per-direction ASCII link heatmaps, a
// top-N bottleneck report with each link's stall mix, or the raw JSON
// document (-json), matching what a live run serves on /heatmap.
func runHeatmap(args []string) error {
	fs := flag.NewFlagSet("heatmap", flag.ContinueOnError)
	sf := addSimFlags(fs)
	bucket := fs.Uint64("bucket", uint64(obs.DefaultBucketCycles), "cycles per utilization window bucket")
	windows := fs.Int("windows", obs.DefaultWindowBucket, "window buckets retained in the ring")
	top := fs.Int("top", 10, "bottleneck links to report")
	asJSON := fs.Bool("json", false, "emit the heatmap document as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, err := sf.observer(recorders{windows: true, bucketCycles: sim.Cycle(*bucket), buckets: *windows})
	if err != nil {
		return err
	}
	n, err := sf.build(o)
	if err != nil {
		return err
	}
	defer n.Close()
	n.Run(sim.Cycle(*sf.cycles))
	snap := o.Windows.Snapshot()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(heatmapDoc(n, snap, *top))
	}
	fmt.Print(formatHeatmap(n, snap, *top))
	return nil
}

// heatmapJSON mirrors telemetry's /heatmap document so the offline
// command and the live endpoint stay interchangeable inputs for the
// same tooling.
type heatmapJSON struct {
	Cycle        uint64            `json:"cycle"`
	BucketCycles uint64            `json:"bucket_cycles"`
	Buckets      int               `json:"buckets"`
	WindowCycles uint64            `json:"window_cycles"`
	StallKinds   []string          `json:"stall_kinds"`
	Links        []heatmapLinkJSON `json:"links"`
}

type heatmapLinkJSON struct {
	Node   int      `json:"node"`
	Port   int      `json:"port"`
	Flits  uint64   `json:"flits"`
	PerVC  []uint64 `json:"per_vc"`
	Stalls []uint64 `json:"stalls"`
}

func heatmapDoc(n *noc.Network, snap obs.WindowSnapshot, top int) heatmapJSON {
	doc := heatmapJSON{
		Cycle:        uint64(n.Now()),
		BucketCycles: uint64(snap.BucketCycles),
		Buckets:      len(snap.Buckets),
		WindowCycles: uint64(snap.Cycles()),
		StallKinds:   make([]string, obs.NumStallKinds),
	}
	for k := 0; k < obs.NumStallKinds; k++ {
		doc.StallKinds[k] = obs.StallKind(k).String()
	}
	totals := snap.LinkTotals()
	if top > 0 {
		totals = snap.TopLinks(top)
	}
	for _, lt := range totals {
		doc.Links = append(doc.Links, heatmapLinkJSON{
			Node: lt.Node, Port: lt.Port, Flits: lt.Flits,
			PerVC: lt.PerVC, Stalls: lt.Stalls[:],
		})
	}
	return doc
}

// stallTotal sums a link's stall mix.
func stallTotal(lt obs.LinkTotal) uint64 {
	var s uint64
	for _, v := range lt.Stalls {
		s += v
	}
	return s
}

// formatHeatmap renders the windowed link activity as text: one ASCII
// grid per mesh direction (outbound flits, 0-9 scale), then the top-N
// bottleneck links ranked by stalled flit-cycles (flits break ties).
// Per link, "flits" counts the outbound direction's traffic and the
// stall columns count flit-cycles the inbound direction's VCs spent
// waiting at that port — the two directions of the same physical
// channel, congested together when the link is a bottleneck.
func formatHeatmap(n *noc.Network, snap obs.WindowSnapshot, top int) string {
	var b strings.Builder
	totals := snap.LinkTotals()
	fmt.Fprintf(&b, "link heatmap: %d cycles in %d windows of %d cycles\n",
		snap.Cycles(), len(snap.Buckets), snap.BucketCycles)

	topo := n.Topo()
	w, h := topo.Dims()
	var max uint64
	flits := map[[2]int]uint64{}
	for _, lt := range totals {
		flits[[2]int{lt.Node, lt.Port}] = lt.Flits
		if lt.Flits > max {
			max = lt.Flits
		}
	}
	for _, dir := range []topology.Port{topology.North, topology.East, topology.South, topology.West} {
		fmt.Fprintf(&b, "\noutbound %v links (max %d flits)\n", dir, max)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				id := topo.ID(topology.Coord{X: x, Y: y})
				if _, ok := topo.Neighbor(id, dir); !ok {
					b.WriteString("  ") // mesh edge: no link in this direction
					continue
				}
				f := flits[[2]int{id, int(dir)}]
				switch {
				case max == 0 || f == 0:
					b.WriteString(" .")
				default:
					v := f * 9 / max
					if v == 0 {
						v = 1
					}
					fmt.Fprintf(&b, " %d", v)
				}
			}
			b.WriteByte('\n')
		}
	}

	// Bottleneck ranking: stalled flit-cycles first — a saturated link
	// and an idle one can carry the same flit count, but only the
	// bottleneck makes traffic wait.
	ranked := make([]obs.LinkTotal, len(totals))
	copy(ranked, totals)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := stallTotal(ranked[i]), stallTotal(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].Flits > ranked[j].Flits
	})
	if top > 0 && len(ranked) > top {
		ranked = ranked[:top]
	}
	fmt.Fprintf(&b, "\ntop %d bottleneck links (by stalled flit-cycles; stalls count the inbound direction)\n", len(ranked))
	fmt.Fprintf(&b, "%-4s %-18s %10s %8s %10s %10s %10s %10s\n",
		"rank", "link", "flits", "util", "credit", "arb", "route", "drain")
	cyc := snap.Cycles()
	for i, lt := range ranked {
		c := topo.Coord(lt.Node)
		util := 0.0
		if cyc > 0 {
			util = float64(lt.Flits) / float64(cyc)
		}
		fmt.Fprintf(&b, "%-4d r%d(%d,%d)%s%-6v %10d %8.3f %10d %10d %10d %10d\n",
			i+1, lt.Node, c.X, c.Y, arrow(lt.Port), topology.Port(lt.Port), lt.Flits, util,
			lt.Stalls[obs.StallCreditStarved], lt.Stalls[obs.StallArbLost],
			lt.Stalls[obs.StallRouteBlocked], lt.Stalls[obs.StallFaultDrain])
	}
	return b.String()
}

// arrow renders the link direction separator; the Local "link" is the
// ejection port, not a hop.
func arrow(port int) string {
	if topology.Port(port) == topology.Local {
		return " @"
	}
	return " >"
}

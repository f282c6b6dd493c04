// Package workloads provides the application traffic used in the paper's
// latency study (Section IX): SPLASH-2 and PARSEC benchmark applications
// running on a 64-core CMP with directory-based coherence.
//
// The paper obtains this traffic from GEM5 running the real benchmarks
// over a MOESI directory protocol. We substitute a synthetic coherence
// workload with the same structure: each core issues requests (single
// control flits) to directory home nodes, homes respond with data packets
// (five flits) for reads and short acknowledgements for upgrades/writes,
// and a fraction of requests target the memory-controller corners. The
// per-application injection rates, read fractions and burstiness are set
// from published NoC traffic characterizations of these suites (light
// loads overall — these benchmarks stress memory far below synthetic
// saturation — with canneal/streamcluster/ocean among the heaviest).
// What the latency experiment measures is the network's response to
// realistic offered load shapes, which this preserves.
package workloads

import (
	"gonoc/internal/flit"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// App is one application's traffic profile.
type App struct {
	// Name is the benchmark name.
	Name string
	// Suite is "SPLASH-2" or "PARSEC".
	Suite string
	// Rate is the per-node request injection rate (requests/node/cycle).
	Rate float64
	// ReadFrac is the fraction of requests answered with a full data
	// packet (5 flits); the rest get single-flit acknowledgements.
	ReadFrac float64
	// Burstiness is the probability a request is immediately followed by
	// another from the same node (misses cluster in real applications).
	Burstiness float64
	// MemFrac is the fraction of requests that go to the memory
	// controllers at the mesh corners instead of a directory home.
	MemFrac float64
}

// SPLASH2 returns the SPLASH-2 application profiles used in Figure 7.
func SPLASH2() []App {
	return []App{
		{Name: "barnes", Suite: "SPLASH-2", Rate: 0.008, ReadFrac: 0.80, Burstiness: 0.20, MemFrac: 0.15},
		{Name: "cholesky", Suite: "SPLASH-2", Rate: 0.011, ReadFrac: 0.75, Burstiness: 0.25, MemFrac: 0.20},
		{Name: "fft", Suite: "SPLASH-2", Rate: 0.013, ReadFrac: 0.70, Burstiness: 0.35, MemFrac: 0.30},
		{Name: "fmm", Suite: "SPLASH-2", Rate: 0.007, ReadFrac: 0.80, Burstiness: 0.15, MemFrac: 0.15},
		{Name: "lu", Suite: "SPLASH-2", Rate: 0.011, ReadFrac: 0.75, Burstiness: 0.25, MemFrac: 0.20},
		{Name: "ocean", Suite: "SPLASH-2", Rate: 0.015, ReadFrac: 0.70, Burstiness: 0.30, MemFrac: 0.35},
		{Name: "radix", Suite: "SPLASH-2", Rate: 0.014, ReadFrac: 0.65, Burstiness: 0.40, MemFrac: 0.30},
		{Name: "water", Suite: "SPLASH-2", Rate: 0.006, ReadFrac: 0.85, Burstiness: 0.10, MemFrac: 0.10},
	}
}

// PARSEC returns the PARSEC application profiles used in Figure 8.
// PARSEC's working sets and sharing patterns load the NoC somewhat more
// than SPLASH-2, which is why the paper sees a larger (13% vs 10%)
// fault-induced latency increase there.
func PARSEC() []App {
	return []App{
		{Name: "blackscholes", Suite: "PARSEC", Rate: 0.006, ReadFrac: 0.85, Burstiness: 0.10, MemFrac: 0.15},
		{Name: "bodytrack", Suite: "PARSEC", Rate: 0.012, ReadFrac: 0.75, Burstiness: 0.30, MemFrac: 0.20},
		{Name: "canneal", Suite: "PARSEC", Rate: 0.015, ReadFrac: 0.65, Burstiness: 0.44, MemFrac: 0.25},
		{Name: "dedup", Suite: "PARSEC", Rate: 0.014, ReadFrac: 0.70, Burstiness: 0.35, MemFrac: 0.25},
		{Name: "ferret", Suite: "PARSEC", Rate: 0.014, ReadFrac: 0.70, Burstiness: 0.35, MemFrac: 0.25},
		{Name: "fluidanimate", Suite: "PARSEC", Rate: 0.013, ReadFrac: 0.75, Burstiness: 0.30, MemFrac: 0.20},
		{Name: "streamcluster", Suite: "PARSEC", Rate: 0.015, ReadFrac: 0.65, Burstiness: 0.40, MemFrac: 0.25},
		{Name: "vips", Suite: "PARSEC", Rate: 0.012, ReadFrac: 0.75, Burstiness: 0.25, MemFrac: 0.20},
		{Name: "x264", Suite: "PARSEC", Rate: 0.014, ReadFrac: 0.70, Burstiness: 0.35, MemFrac: 0.25},
	}
}

// Coherence is the closed-loop coherence-style traffic source
// implementing noc.Traffic for one application profile.
type Coherence struct {
	app     App
	topo    topology.Topology
	memCtrl []int
	streams []*rng.Stream
	inBurst []bool
	stopAt  sim.Cycle

	// Requests and Replies count generated packets, for tests.
	Requests, Replies uint64
}

// NewCoherence builds the traffic source for app on any router-grid
// topology (mesh or torus), deterministic in seed. Memory
// controllers sit at the four grid corners, directory homes are
// address-interleaved across all nodes.
func NewCoherence(app App, topo topology.Topology, seed uint64) *Coherence {
	root := rng.New(seed)
	w, h := topo.Dims()
	c := &Coherence{
		app:  app,
		topo: topo,
		memCtrl: []int{
			0, w - 1, (h - 1) * w, topo.Nodes() - 1,
		},
		streams: make([]*rng.Stream, topo.Nodes()),
		inBurst: make([]bool, topo.Nodes()),
	}
	for i := range c.streams {
		c.streams[i] = root.Split()
	}
	return c
}

// StopAt stops request generation at cycle cyc (replies continue so the
// network can drain).
func (c *Coherence) StopAt(cyc sim.Cycle) { c.stopAt = cyc }

// Offered implements noc.Traffic: each node issues requests by a bursty
// Bernoulli process.
func (c *Coherence) Offered(node int, cyc sim.Cycle) []*flit.Packet {
	if c.stopAt != 0 && cyc >= c.stopAt {
		return nil
	}
	r := c.streams[node]
	fire := c.inBurst[node] || r.Bernoulli(c.app.Rate)
	if !fire {
		return nil
	}
	c.inBurst[node] = r.Bernoulli(c.app.Burstiness)
	dst := c.home(node, r)
	c.Requests++
	return []*flit.Packet{{Dst: dst, Class: flit.Request, Size: 1}}
}

// home picks a request destination: a memory controller with probability
// MemFrac, otherwise a uniformly interleaved directory home.
func (c *Coherence) home(node int, r *rng.Stream) int {
	if r.Bernoulli(c.app.MemFrac) {
		if d := c.memCtrl[r.Intn(len(c.memCtrl))]; d != node {
			return d
		}
	}
	for {
		d := r.Intn(c.topo.Nodes())
		if d != node {
			return d
		}
	}
}

// OnEject implements noc.Traffic: every delivered request generates a
// response back to the requester — a 5-flit data packet for reads, a
// single-flit acknowledgement otherwise.
func (c *Coherence) OnEject(p *flit.Packet, cyc sim.Cycle) []*flit.Packet {
	if p.Class != flit.Request {
		return nil
	}
	r := c.streams[p.Dst]
	size := 1
	if r.Bernoulli(c.app.ReadFrac) {
		size = 5
	}
	c.Replies++
	return []*flit.Packet{{Dst: p.Src, Class: flit.Response, Size: size}}
}

// Package traffic provides synthetic workload generators for the NoC:
// the classic destination patterns (uniform random, transpose,
// bit-complement, tornado, hotspot, nearest neighbour), Bernoulli and
// bursty injection processes, and a trace replayer. All generators are
// deterministic given their seed.
package traffic

import (
	"fmt"

	"gonoc/internal/flit"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// DestFn selects a destination node for a packet originating at src. A
// DestFn may use the provided stream for randomized patterns. It must
// never return src.
type DestFn func(src int, r *rng.Stream) int

// Uniform sends to a destination chosen uniformly among all other nodes.
func Uniform(nodes int) DestFn {
	if nodes < 2 {
		panic("traffic: uniform pattern needs >= 2 nodes")
	}
	return func(src int, r *rng.Stream) int {
		d := r.Intn(nodes - 1)
		if d >= src {
			d++
		}
		return d
	}
}

// Transpose sends (x, y) → (y, x); nodes on the diagonal fall back to
// uniform. Requires a square router grid (any topology family).
func Transpose(t topology.Topology) DestFn {
	w, h := t.Dims()
	if w != h {
		panic(fmt.Sprintf("traffic: transpose needs a square grid, got %dx%d", w, h))
	}
	uni := Uniform(t.Nodes())
	return func(src int, r *rng.Stream) int {
		c := t.Coord(src)
		if c.X == c.Y {
			return uni(src, r)
		}
		return t.ID(topology.Coord{X: c.Y, Y: c.X})
	}
}

// BitComplement sends (x, y) → (W−1−x, H−1−y); the centre falls back to
// uniform on odd-sized grids.
func BitComplement(t topology.Topology) DestFn {
	w, h := t.Dims()
	uni := Uniform(t.Nodes())
	return func(src int, r *rng.Stream) int {
		c := t.Coord(src)
		d := topology.Coord{X: w - 1 - c.X, Y: h - 1 - c.Y}
		if d == c {
			return uni(src, r)
		}
		return t.ID(d)
	}
}

// Tornado sends halfway around each dimension: (x, y) → ((x+W/2) mod W, y).
// On a torus this is the classic adversarial pattern for minimal routing:
// every packet travels the maximum distance its ring allows.
func Tornado(t topology.Topology) DestFn {
	w, _ := t.Dims()
	uni := Uniform(t.Nodes())
	return func(src int, r *rng.Stream) int {
		c := t.Coord(src)
		d := topology.Coord{X: (c.X + w/2) % w, Y: c.Y}
		if d == c {
			return uni(src, r)
		}
		return t.ID(d)
	}
}

// Neighbor sends to a uniformly chosen directly-linked neighbour.
func Neighbor(t topology.Topology) DestFn {
	return func(src int, r *rng.Stream) int {
		dirs := []topology.Port{topology.North, topology.East, topology.South, topology.West}
		for {
			if n, ok := t.Neighbor(src, dirs[r.Intn(len(dirs))]); ok && n != src {
				return n
			}
		}
	}
}

// Hotspot sends a fraction frac of traffic to a uniformly chosen node in
// hot, and the remainder uniformly. It models memory-controller or
// directory concentration.
func Hotspot(nodes int, hot []int, frac float64) DestFn {
	if len(hot) == 0 {
		panic("traffic: hotspot pattern needs at least one hot node")
	}
	uni := Uniform(nodes)
	return func(src int, r *rng.Stream) int {
		if r.Bernoulli(frac) {
			d := hot[r.Intn(len(hot))]
			if d != src {
				return d
			}
		}
		return uni(src, r)
	}
}

// SizeFn returns a packet size in flits.
type SizeFn func(r *rng.Stream) int

// FixedSize always returns n flits.
func FixedSize(n int) SizeFn {
	if n < 1 {
		panic("traffic: packet size must be >= 1")
	}
	return func(*rng.Stream) int { return n }
}

// Bimodal returns shortSize with probability shortFrac, else longSize —
// the control/data mix of coherence traffic.
func Bimodal(shortSize, longSize int, shortFrac float64) SizeFn {
	return func(r *rng.Stream) int {
		if r.Bernoulli(shortFrac) {
			return shortSize
		}
		return longSize
	}
}

// Synthetic is an open-loop generator: every node offers packets by a
// Bernoulli (or bursty) process at the configured rate.
type Synthetic struct {
	nodes   int
	rate    float64 // packets per node per cycle
	dest    DestFn
	size    SizeFn
	burst   float64 // probability a packet is followed by a burst packet
	stopAt  sim.Cycle
	streams []*rng.Stream
	inBurst []bool
}

// NewSynthetic builds a generator for nodes nodes offering rate packets
// per node per cycle with the given destination pattern and size
// distribution.
func NewSynthetic(nodes int, rate float64, dest DestFn, size SizeFn, seed uint64) *Synthetic {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("traffic: rate %v outside [0,1]", rate))
	}
	root := rng.New(seed)
	s := &Synthetic{
		nodes:   nodes,
		rate:    rate,
		dest:    dest,
		size:    size,
		streams: make([]*rng.Stream, nodes),
		inBurst: make([]bool, nodes),
	}
	for i := range s.streams {
		s.streams[i] = root.Split()
	}
	return s
}

// SetBurstiness makes each packet trigger a follow-up packet next cycle
// with probability p, modelling bursty application phases.
func (s *Synthetic) SetBurstiness(p float64) { s.burst = p }

// StopAt stops generation at cycle c (0 = never), letting the network
// drain.
func (s *Synthetic) StopAt(c sim.Cycle) { s.stopAt = c }

// Offered implements the noc.Traffic interface.
func (s *Synthetic) Offered(node int, c sim.Cycle) []*flit.Packet {
	if s.stopAt != 0 && c >= s.stopAt {
		return nil
	}
	r := s.streams[node]
	fire := s.inBurst[node] || r.Bernoulli(s.rate)
	if !fire {
		return nil
	}
	s.inBurst[node] = s.burst > 0 && r.Bernoulli(s.burst)
	return []*flit.Packet{{
		Dst:   s.dest(node, r),
		Class: flit.Request,
		Size:  s.size(r),
	}}
}

// OnEject implements the noc.Traffic interface (open loop: no replies).
func (s *Synthetic) OnEject(*flit.Packet, sim.Cycle) []*flit.Packet { return nil }

// TraceEntry is one packet of a recorded trace.
type TraceEntry struct {
	Cycle sim.Cycle
	Src   int
	Dst   int
	Size  int
	Class flit.Class
}

// Trace replays a fixed packet schedule; entries must be sorted by Cycle.
type Trace struct {
	byNode map[int][]TraceEntry
}

// NewTrace builds a replayer from entries (grouped internally by source).
func NewTrace(entries []TraceEntry) *Trace {
	t := &Trace{byNode: map[int][]TraceEntry{}}
	for _, e := range entries {
		t.byNode[e.Src] = append(t.byNode[e.Src], e)
	}
	return t
}

// Offered implements the noc.Traffic interface.
func (t *Trace) Offered(node int, c sim.Cycle) []*flit.Packet {
	q := t.byNode[node]
	var out []*flit.Packet
	for len(q) > 0 && q[0].Cycle <= c {
		e := q[0]
		q = q[1:]
		out = append(out, &flit.Packet{Dst: e.Dst, Size: e.Size, Class: e.Class})
	}
	t.byNode[node] = q
	return out
}

// OnEject implements the noc.Traffic interface.
func (t *Trace) OnEject(*flit.Packet, sim.Cycle) []*flit.Packet { return nil }

// Remaining returns how many trace entries are still unsent.
func (t *Trace) Remaining() int {
	n := 0
	for _, q := range t.byNode {
		n += len(q)
	}
	return n
}

package topology

import "fmt"

// Port identifies one of a mesh router's five ports. Port values double as
// indices into per-port arrays throughout the simulator.
type Port int

// The five ports of a 2-D mesh router. Local connects to the node's
// network interface (core/cache); the others connect to neighbouring
// routers. North decreases y, South increases y, East increases x, West
// decreases x (origin at the north-west corner).
const (
	Local Port = iota
	North
	East
	South
	West
	// NumPorts is the router radix in a 2-D mesh.
	NumPorts
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case Local:
		return "L"
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// opposites is Opposite's table; Local's entry is never returned.
var opposites = [NumPorts]Port{North: South, East: West, South: North, West: East}

// Opposite returns the port on the neighbouring router that faces back at
// p: a flit leaving through East arrives on the neighbour's West port.
// It panics for Local, which has no peer router. It is a table lookup
// small enough to inline: the link commit and the routing-table builder
// call it per link.
func (p Port) Opposite() Port {
	if uint(p-North) >= uint(NumPorts-North) {
		noOpposite(p)
	}
	return opposites[p]
}

// noOpposite is Opposite's panic, kept out of line so the formatting
// does not count against Opposite's inlining budget.
//
//go:noinline
func noOpposite(p Port) {
	panic(fmt.Sprintf("topology: port %v has no opposite", p))
}

// Coord is a node position in the mesh.
type Coord struct{ X, Y int }

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Topology is the router-graph abstraction the simulator builds against:
// a family of radix-5 router networks sharing the mesh coordinate system
// (see the package documentation). Implementations are small value types
// (Mesh, Torus, CMesh) and must be deterministic pure functions of the
// node arguments.
type Topology interface {
	// Kind names the topology family: "mesh", "torus" or "cmesh".
	Kind() string
	// Nodes returns the number of routers.
	Nodes() int
	// Dims returns the router-grid dimensions (W, H).
	Dims() (w, h int)
	// Coord returns the position of node id; it panics out of range.
	Coord(id int) Coord
	// ID returns the node id at position c; it panics out of range.
	ID(c Coord) int
	// Neighbor returns the node reached from id through port p and
	// whether such a link exists (mesh edges lack some; Local has none).
	Neighbor(id int, p Port) (int, bool)
	// Route returns the output port a flit at cur takes toward dst under
	// the family's deterministic minimal routing (XY for mesh/cmesh,
	// minimal-direction DOR for torus). Route(dst, dst) is Local.
	Route(cur, dst int) Port
	// Hops returns the number of router-to-router hops on the Route path
	// from src to dst.
	Hops(src, dst int) int
	// Wrap reports whether the link leaving id through p is a
	// wrap-around (dateline) link. Always false for mesh and cmesh.
	Wrap(id int, p Port) bool
}

// New builds a topology from its kind name: "mesh", "torus" or "cmesh"
// (conc is the terminals-per-router concentration, used by cmesh only
// and ignored elsewhere; 0 defaults to 1).
func New(kind string, w, h, conc int) (Topology, error) {
	switch kind {
	case "", "mesh":
		if w < 1 || h < 1 {
			return nil, fmt.Errorf("topology: invalid mesh %dx%d", w, h)
		}
		return NewMesh(w, h), nil
	case "torus":
		if w < 1 || h < 1 {
			return nil, fmt.Errorf("topology: invalid torus %dx%d", w, h)
		}
		return NewTorus(w, h), nil
	case "cmesh":
		if w < 1 || h < 1 {
			return nil, fmt.Errorf("topology: invalid cmesh %dx%d", w, h)
		}
		if conc == 0 {
			conc = 1
		}
		if conc < 1 {
			return nil, fmt.Errorf("topology: invalid cmesh concentration %d", conc)
		}
		return NewCMesh(w, h, conc), nil
	default:
		return nil, fmt.Errorf("topology: unknown kind %q (want mesh, torus or cmesh)", kind)
	}
}

// Mesh is a W×H 2-D mesh topology. Node IDs are assigned row-major:
// id = y*W + x.
type Mesh struct {
	W, H int
}

// NewMesh returns a W×H mesh. It panics unless both dimensions are >= 1.
func NewMesh(w, h int) Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", w, h))
	}
	return Mesh{W: w, H: h}
}

// Nodes returns the number of nodes (routers) in the mesh.
func (m Mesh) Nodes() int { return m.W * m.H }

// Coord returns the position of node id. It panics for out-of-range ids.
func (m Mesh) Coord(id int) Coord {
	if id < 0 || id >= m.Nodes() {
		panic(fmt.Sprintf("topology: node %d outside %dx%d mesh", id, m.W, m.H))
	}
	return Coord{X: id % m.W, Y: id / m.W}
}

// ID returns the node id at position c. It panics for out-of-range coords.
func (m Mesh) ID(c Coord) int {
	if c.X < 0 || c.X >= m.W || c.Y < 0 || c.Y >= m.H {
		panic(fmt.Sprintf("topology: coord %v outside %dx%d mesh", c, m.W, m.H))
	}
	return c.Y*m.W + c.X
}

// Neighbor returns the node reached from id through port p, and whether
// such a neighbour exists (edge routers lack some neighbours; Local has
// none).
func (m Mesh) Neighbor(id int, p Port) (int, bool) {
	c := m.Coord(id)
	switch p {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return -1, false
	}
	if c.X < 0 || c.X >= m.W || c.Y < 0 || c.Y >= m.H {
		return -1, false
	}
	return m.ID(c), true
}

// RouteXY performs dimension-order routing: it returns the output port a
// flit at node cur must take to reach dst, correcting X before Y. When
// cur == dst it returns Local.
//
// XY routing is deterministic, table-free (it needs only two coordinate
// comparators, which is why the paper's RC unit is a pair of 6-bit
// comparators) and deadlock-free on a mesh.
func (m Mesh) RouteXY(cur, dst int) Port {
	cc, dc := m.Coord(cur), m.Coord(dst)
	switch {
	case dc.X > cc.X:
		return East
	case dc.X < cc.X:
		return West
	case dc.Y > cc.Y:
		return South
	case dc.Y < cc.Y:
		return North
	default:
		return Local
	}
}

// HopsXY returns the number of router-to-router hops on the XY route from
// src to dst (the Manhattan distance).
func (m Mesh) HopsXY(src, dst int) int {
	s, d := m.Coord(src), m.Coord(dst)
	return abs(s.X-d.X) + abs(s.Y-d.Y)
}

// PathXY returns the full sequence of nodes visited from src to dst under
// XY routing, inclusive of both endpoints.
func (m Mesh) PathXY(src, dst int) []int {
	path := []int{src}
	cur := src
	for cur != dst {
		p := m.RouteXY(cur, dst)
		next, ok := m.Neighbor(cur, p)
		if !ok {
			panic(fmt.Sprintf("topology: XY route from %d to %d fell off the mesh at %d", src, dst, cur))
		}
		path = append(path, next)
		cur = next
	}
	return path
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Kind implements Topology.
func (m Mesh) Kind() string { return "mesh" }

// Dims implements Topology.
func (m Mesh) Dims() (int, int) { return m.W, m.H }

// Route implements Topology: dimension-order XY routing.
func (m Mesh) Route(cur, dst int) Port { return m.RouteXY(cur, dst) }

// Hops implements Topology: the Manhattan distance.
func (m Mesh) Hops(src, dst int) int { return m.HopsXY(src, dst) }

// Wrap implements Topology: a mesh has no wrap-around links.
func (m Mesh) Wrap(int, Port) bool { return false }

var _ Topology = Mesh{}

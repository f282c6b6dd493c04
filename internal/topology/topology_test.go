package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(8, 8)
	for id := 0; id < m.Nodes(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, m.Coord(id), got)
		}
	}
}

func TestNodes(t *testing.T) {
	if n := NewMesh(8, 8).Nodes(); n != 64 {
		t.Fatalf("8x8 mesh has %d nodes", n)
	}
	if n := NewMesh(4, 2).Nodes(); n != 8 {
		t.Fatalf("4x2 mesh has %d nodes", n)
	}
}

func TestNewMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMesh(0,3) did not panic")
		}
	}()
	NewMesh(0, 3)
}

func TestNeighbor(t *testing.T) {
	m := NewMesh(4, 4)
	// Node 5 = (1,1): all four neighbours exist.
	cases := []struct {
		p    Port
		want int
	}{
		{North, 1}, {South, 9}, {East, 6}, {West, 4},
	}
	for _, c := range cases {
		got, ok := m.Neighbor(5, c.p)
		if !ok || got != c.want {
			t.Errorf("Neighbor(5, %v) = (%d, %v), want (%d, true)", c.p, got, ok, c.want)
		}
	}
	// Corner node 0 = (0,0): North and West fall off.
	for _, p := range []Port{North, West} {
		if _, ok := m.Neighbor(0, p); ok {
			t.Errorf("Neighbor(0, %v) should not exist", p)
		}
	}
	// Local never has a neighbour.
	if _, ok := m.Neighbor(5, Local); ok {
		t.Error("Local port has a neighbour")
	}
}

func TestOpposite(t *testing.T) {
	pairs := map[Port]Port{North: South, South: North, East: West, West: East}
	for p, want := range pairs {
		if p.Opposite() != want {
			t.Errorf("%v.Opposite() = %v", p, p.Opposite())
		}
	}
	for _, p := range []Port{Local, NumPorts, -1} {
		func() {
			defer func() {
				want := fmt.Sprintf("topology: port %v has no opposite", p)
				if got := recover(); got != want {
					t.Errorf("%v.Opposite() panicked with %v, want %q", p, got, want)
				}
			}()
			_ = p.Opposite()
		}()
	}
}

func TestNeighborOppositeSymmetry(t *testing.T) {
	m := NewMesh(5, 3)
	for id := 0; id < m.Nodes(); id++ {
		for _, p := range []Port{North, East, South, West} {
			n, ok := m.Neighbor(id, p)
			if !ok {
				continue
			}
			back, ok2 := m.Neighbor(n, p.Opposite())
			if !ok2 || back != id {
				t.Fatalf("asymmetric link %d --%v--> %d --%v--> %d", id, p, n, p.Opposite(), back)
			}
		}
	}
}

func TestRouteXYBasic(t *testing.T) {
	m := NewMesh(8, 8)
	// From (0,0) to (3,2): X first.
	if p := m.RouteXY(0, m.ID(Coord{3, 2})); p != East {
		t.Errorf("first hop = %v, want E", p)
	}
	// Same column: go vertical.
	if p := m.RouteXY(m.ID(Coord{3, 0}), m.ID(Coord{3, 2})); p != South {
		t.Errorf("vertical hop = %v, want S", p)
	}
	if p := m.RouteXY(5, 5); p != Local {
		t.Errorf("self route = %v, want L", p)
	}
}

func TestPathXYMatchesHops(t *testing.T) {
	m := NewMesh(8, 8)
	src, dst := m.ID(Coord{1, 6}), m.ID(Coord{5, 2})
	path := m.PathXY(src, dst)
	if len(path) != m.HopsXY(src, dst)+1 {
		t.Fatalf("path length %d, hops %d", len(path), m.HopsXY(src, dst))
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("path endpoints %d..%d", path[0], path[len(path)-1])
	}
}

// Property: XY routing always terminates at dst with exactly Manhattan
// distance hops, and X is fully corrected before Y moves.
func TestRouteXYProperty(t *testing.T) {
	m := NewMesh(8, 8)
	f := func(a, b uint8) bool {
		src, dst := int(a)%64, int(b)%64
		path := m.PathXY(src, dst)
		if len(path)-1 != m.HopsXY(src, dst) {
			return false
		}
		// Once a vertical move happens, no horizontal moves may follow.
		vertical := false
		for i := 1; i < len(path); i++ {
			pc, cc := m.Coord(path[i-1]), m.Coord(path[i])
			dx, dy := cc.X-pc.X, cc.Y-pc.Y
			if abs(dx)+abs(dy) != 1 {
				return false // non-unit hop
			}
			if dy != 0 {
				vertical = true
			} else if vertical {
				return false // X move after Y began
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: XY routing is deadlock-free on a mesh because the port turn
// ordering forbids the four "illegal" turns; equivalently, every route's
// channel sequence is monotone in (dimension, direction). We check the
// weaker invariant that RouteXY never returns a port whose neighbour does
// not exist.
func TestRouteXYNeverFallsOff(t *testing.T) {
	m := NewMesh(6, 5)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			cur := src
			for steps := 0; cur != dst; steps++ {
				if steps > m.Nodes() {
					t.Fatalf("route %d->%d did not terminate", src, dst)
				}
				p := m.RouteXY(cur, dst)
				next, ok := m.Neighbor(cur, p)
				if !ok {
					t.Fatalf("route %d->%d falls off mesh at %d via %v", src, dst, cur, p)
				}
				cur = next
			}
		}
	}
}

func TestPortString(t *testing.T) {
	want := map[Port]string{Local: "L", North: "N", East: "E", South: "S", West: "W"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

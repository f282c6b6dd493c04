package topology

import (
	"testing"
)

// TestTorusNeighborWrap checks the wrap links close every row and column
// into a ring, and that link pairing (port ↔ opposite port) is symmetric.
func TestTorusNeighborWrap(t *testing.T) {
	tor := NewTorus(4, 3)
	// Wrap links at the boundaries.
	cases := []struct {
		id   int
		p    Port
		want int
		wrap bool
	}{
		{tor.ID(Coord{X: 3, Y: 0}), East, tor.ID(Coord{X: 0, Y: 0}), true},
		{tor.ID(Coord{X: 0, Y: 0}), West, tor.ID(Coord{X: 3, Y: 0}), true},
		{tor.ID(Coord{X: 1, Y: 2}), South, tor.ID(Coord{X: 1, Y: 0}), true},
		{tor.ID(Coord{X: 1, Y: 0}), North, tor.ID(Coord{X: 1, Y: 2}), true},
		{tor.ID(Coord{X: 1, Y: 1}), East, tor.ID(Coord{X: 2, Y: 1}), false},
	}
	for _, tc := range cases {
		got, ok := tor.Neighbor(tc.id, tc.p)
		if !ok || got != tc.want {
			t.Errorf("Neighbor(%d, %v) = %d, %v; want %d, true", tc.id, tc.p, got, ok, tc.want)
		}
		if w := tor.Wrap(tc.id, tc.p); w != tc.wrap {
			t.Errorf("Wrap(%d, %v) = %v, want %v", tc.id, tc.p, w, tc.wrap)
		}
	}
	// Symmetry: crossing a link and coming back through the opposite port
	// returns home, for every node and direction.
	for id := 0; id < tor.Nodes(); id++ {
		for p := North; p <= West; p++ {
			nb, ok := tor.Neighbor(id, p)
			if !ok {
				t.Fatalf("torus node %d lacks a %v link", id, p)
			}
			back, ok := tor.Neighbor(nb, p.Opposite())
			if !ok || back != id {
				t.Errorf("Neighbor(%d, %v)=%d but Neighbor(%d, %v)=%d", id, p, nb, nb, p.Opposite(), back)
			}
		}
	}
}

// TestTorusRouteMinimal walks Route from every source to every
// destination and checks it terminates in exactly Hops steps — i.e. the
// route is minimal, loop-free and never falls off the graph.
func TestTorusRouteMinimal(t *testing.T) {
	for _, dims := range []struct{ w, h int }{{4, 4}, {5, 3}, {2, 2}, {1, 6}, {8, 8}} {
		tor := NewTorus(dims.w, dims.h)
		for src := 0; src < tor.Nodes(); src++ {
			for dst := 0; dst < tor.Nodes(); dst++ {
				cur, steps := src, 0
				for cur != dst {
					p := tor.Route(cur, dst)
					if p == Local {
						t.Fatalf("%dx%d: Route(%d,%d) = Local before arrival", dims.w, dims.h, cur, dst)
					}
					next, ok := tor.Neighbor(cur, p)
					if !ok {
						t.Fatalf("%dx%d: Route(%d,%d) = %v has no link", dims.w, dims.h, cur, dst, p)
					}
					cur = next
					if steps++; steps > tor.Nodes() {
						t.Fatalf("%dx%d: route %d->%d loops", dims.w, dims.h, src, dst)
					}
				}
				if want := tor.Hops(src, dst); steps != want {
					t.Errorf("%dx%d: route %d->%d took %d hops, Hops says %d", dims.w, dims.h, src, dst, steps, want)
				}
			}
		}
	}
}

// TestTorusRouteTieBreak pins the deterministic tie-break: at exactly
// half an even ring the positive direction (East/South) wins.
func TestTorusRouteTieBreak(t *testing.T) {
	tor := NewTorus(4, 4)
	// (0,0) -> (2,0): distance 2 both ways; East must win.
	if p := tor.Route(tor.ID(Coord{X: 0, Y: 0}), tor.ID(Coord{X: 2, Y: 0})); p != East {
		t.Errorf("X tie-break = %v, want East", p)
	}
	// (0,0) -> (0,2): South must win.
	if p := tor.Route(tor.ID(Coord{X: 0, Y: 0}), tor.ID(Coord{X: 0, Y: 2})); p != South {
		t.Errorf("Y tie-break = %v, want South", p)
	}
}

// TestTorusWrapCrossings checks a minimal route crosses each dimension's
// dateline at most once — the property the noc layer's dateline VC
// scheme relies on for deadlock freedom.
func TestTorusWrapCrossings(t *testing.T) {
	tor := NewTorus(5, 4)
	for src := 0; src < tor.Nodes(); src++ {
		for dst := 0; dst < tor.Nodes(); dst++ {
			cur, xWraps, yWraps := src, 0, 0
			for cur != dst {
				p := tor.Route(cur, dst)
				if tor.Wrap(cur, p) {
					if p == East || p == West {
						xWraps++
					} else {
						yWraps++
					}
				}
				cur, _ = tor.Neighbor(cur, p)
			}
			if xWraps > 1 || yWraps > 1 {
				t.Fatalf("route %d->%d crosses datelines %d/%d times", src, dst, xWraps, yWraps)
			}
		}
	}
}

// TestNewFactory is the kind-string constructor table test.
func TestNewFactory(t *testing.T) {
	cases := []struct {
		kind    string
		w, h    int
		wantErr bool
		nodes   int
	}{
		{kind: "mesh", w: 4, h: 4, nodes: 16},
		{kind: "", w: 2, h: 3, nodes: 6}, // empty kind defaults to mesh
		{kind: "torus", w: 4, h: 4, nodes: 16},
		{kind: "hypercube", w: 4, h: 4, wantErr: true},
		{kind: "mesh", w: 0, h: 4, wantErr: true},
		{kind: "torus", w: 4, h: -1, wantErr: true},
	}
	for _, tc := range cases {
		topo, err := New(tc.kind, tc.w, tc.h)
		if tc.wantErr {
			if err == nil {
				t.Errorf("New(%q,%d,%d) accepted, want error", tc.kind, tc.w, tc.h)
			}
			continue
		}
		if err != nil {
			t.Errorf("New(%q,%d,%d): %v", tc.kind, tc.w, tc.h, err)
			continue
		}
		if topo.Nodes() != tc.nodes {
			t.Errorf("New(%q,%d,%d).Nodes() = %d, want %d", tc.kind, tc.w, tc.h, topo.Nodes(), tc.nodes)
		}
	}
}

// TestMeshImplementsTopology pins the Mesh interface methods onto their
// XY counterparts.
func TestMeshImplementsTopology(t *testing.T) {
	m := NewMesh(5, 3)
	if m.Kind() != "mesh" {
		t.Fatalf("Kind = %q", m.Kind())
	}
	if w, h := m.Dims(); w != 5 || h != 3 {
		t.Fatalf("Dims = %d,%d", w, h)
	}
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if m.Route(src, dst) != m.RouteXY(src, dst) {
				t.Fatalf("Route(%d,%d) != RouteXY", src, dst)
			}
			if m.Hops(src, dst) != m.HopsXY(src, dst) {
				t.Fatalf("Hops(%d,%d) != HopsXY", src, dst)
			}
		}
		for p := North; p <= West; p++ {
			if m.Wrap(src, p) {
				t.Fatalf("mesh Wrap(%d,%v) = true", src, p)
			}
		}
	}
}

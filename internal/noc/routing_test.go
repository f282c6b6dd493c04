package noc

import (
	"fmt"
	"testing"

	"gonoc/internal/rng"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

// faultSet is a network-level fault state in the shape the builders
// take. Link faults are marked on both endpoints, as SetLinkFault does,
// unless killHalf is used.
type faultSet struct {
	topo       topology.Topology
	linkDead   [][]bool
	routerDead []bool
}

// fuzzTopo maps a fuzz input's first byte to a topology family. It
// keeps the three-slot encoding of the checked-in corpora: slot 1 is the
// torus, slots 0 and 2 the mesh.
func fuzzTopo(b byte) string {
	if b%3 == 1 {
		return "torus"
	}
	return "mesh"
}

func newFaultSet(t testing.TB, kind string, w, h int) *faultSet {
	t.Helper()
	tp, err := topology.New(kind, w, h)
	if err != nil {
		t.Fatal(err)
	}
	f := &faultSet{topo: tp, linkDead: make([][]bool, tp.Nodes()), routerDead: make([]bool, tp.Nodes())}
	for i := range f.linkDead {
		f.linkDead[i] = make([]bool, topology.NumPorts)
	}
	return f
}

// killHalf kills only the id→p direction of a link, a state SetLinkFault
// never forms but both builders define (each reads the sender's side).
func (f *faultSet) killHalf(id int, p topology.Port) {
	if _, ok := f.topo.Neighbor(id, p); ok {
		f.linkDead[id][p] = true
	}
}

// killLink kills both directions of a link; a port with no link is a
// no-op.
func (f *faultSet) killLink(id int, p topology.Port) {
	if nb, ok := f.topo.Neighbor(id, p); ok {
		f.linkDead[id][p] = true
		f.linkDead[nb][p.Opposite()] = true
	}
}

// killRandom adds k seeded faults, about one in four of them a router.
func (f *faultSet) killRandom(r *rng.Stream, k int) {
	for i := 0; i < k; i++ {
		id := r.Intn(f.topo.Nodes())
		if r.Intn(4) == 0 {
			f.routerDead[id] = true
		} else {
			f.killLink(id, topology.North+topology.Port(r.Intn(4)))
		}
	}
}

// checkAgainstReference builds f's tables with b and requires them to
// equal the reference builder's entry for entry.
func (f *faultSet) checkAgainstReference(t *testing.T, b *routeBuilder) {
	t.Helper()
	got := b.build(f.topo, f.linkDead, f.routerDead)
	want := refBuildRoutes(f.topo, f.linkDead, f.routerDead)
	if got.nStates != f.topo.Nodes()*statesPerNode || 2*len(got.packed) != len(want)*got.nStates {
		t.Fatalf("table shape: nStates %d, %d bytes for %d destinations", got.nStates, len(got.packed), len(want))
	}
	bad := 0
	for dst := range want {
		for s, w := range want[dst] {
			g := got.lookup(dst, s/statesPerNode, topology.Port(s%statesPerNode/numLayers), s%numLayers)
			if g == w {
				continue
			}
			if bad++; bad <= 5 {
				t.Errorf("dst %d state (node %d, in %v, layer %d): got {out %d, layer %d}, reference {out %d, layer %d}",
					dst, s/statesPerNode, topology.Port(s%statesPerNode/numLayers), s%numLayers, g.out, g.layer, w.out, w.layer)
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d entries differ in all", bad)
	}
}

// TestBuildRoutesMatchesReference is the differential check behind the
// one-pass builder: on every topology family, square and not, fault
// free through five faults, with dead destinations and sources,
// partitioned fabrics and every torus wrap link, its tables equal the
// reference builder's (routing_ref_test.go) entry for entry. All cases
// share one builder, so recycled scratch is checked along the way.
func TestBuildRoutesMatchesReference(t *testing.T) {
	var b routeBuilder
	run := func(name string, f *faultSet) {
		t.Run(name, func(t *testing.T) { f.checkAgainstReference(t, &b) })
	}
	for _, kind := range []string{"mesh", "torus"} {
		for _, d := range [][2]int{{1, 1}, {1, 4}, {3, 1}, {2, 2}, {4, 4}, {5, 3}, {3, 6}, {8, 8}} {
			w, h := d[0], d[1]
			for k := 0; k <= 5; k++ {
				f := newFaultSet(t, kind, w, h)
				f.killRandom(rng.New(uint64(1000*w+10*h+k)), k)
				run(fmt.Sprintf("%s/%dx%d/%dfaults", kind, w, h, k), f)
			}
		}
		f := newFaultSet(t, kind, 16, 16)
		f.killRandom(rng.New(16), 3)
		run(kind+"/16x16/3faults", f)

		// A dead router is at once a dead destination, a dead source and
		// a hole every other pair must detour around.
		f = newFaultSet(t, kind, 4, 4)
		f.routerDead[5] = true
		run(kind+"/4x4/dead-router", f)

		// Cut every link between columns 1 and 2 (and, on a torus, the
		// wrap links closing the rows): two fabrics that cannot reach
		// each other.
		f = newFaultSet(t, kind, 4, 4)
		for y := 0; y < 4; y++ {
			f.killLink(y*4+1, topology.East)
			f.killLink(y*4+3, topology.East)
		}
		run(kind+"/4x4/partitioned", f)

		f = newFaultSet(t, kind, 5, 3)
		f.killHalf(7, topology.East)
		f.killHalf(2, topology.South)
		run(kind+"/5x3/one-way-dead", f)
	}
	// Every wrap link of a 4x4 torus, one at a time and all at once.
	all := newFaultSet(t, "torus", 4, 4)
	for id := 0; id < all.topo.Nodes(); id++ {
		for _, p := range []topology.Port{topology.East, topology.South} {
			if !all.topo.Wrap(id, p) {
				continue
			}
			f := newFaultSet(t, "torus", 4, 4)
			f.killLink(id, p)
			run(fmt.Sprintf("torus/4x4/wrap-%d-%v", id, p), f)
			all.killLink(id, p)
		}
	}
	run("torus/4x4/all-wraps", all)
}

// FuzzBuildRoutes decodes a topology (family, width and height up to 8)
// and a fault list from the input and requires the one-pass builder's
// tables to equal the reference builder's entry for entry. Byte pairs
// after the three-byte header are faults: a router, a link, or one
// direction of a link.
func FuzzBuildRoutes(f *testing.F) {
	f.Add([]byte{1, 3, 3, 0x01, 0, 0x02, 5, 0x80, 9})
	f.Add([]byte{2, 4, 2, 0x43, 7, 0x00, 1})
	f.Add([]byte("torus partition: \x01\x07\x02\x03\x01\x0b\x01\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 3 {
			data = append(data, 0)
		}
		kind := fuzzTopo(data[0])
		fs := newFaultSet(t, kind, 1+int(data[1]%8), 1+int(data[2]%8))
		for pair := data[3:]; len(pair) >= 2; pair = pair[2:] {
			id := int(pair[1]) % fs.topo.Nodes()
			p := topology.North + topology.Port(pair[0]%4)
			switch {
			case pair[0]&0x80 != 0:
				fs.routerDead[id] = true
			case pair[0]&0x40 != 0:
				fs.killHalf(id, p)
			default:
				fs.killLink(id, p)
			}
		}
		fs.checkAgainstReference(t, new(routeBuilder))
	})
}

// TestRebuildRoutesRecyclesScratch pins the builder's memory contract:
// after a network's first rebuild, a kill allocates only the table it
// publishes (the routeTable, its entries and nothing per destination).
func TestRebuildRoutesRecyclesScratch(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		n := MustNew(Config{Width: 16, Height: 16, Topo: topo, Router: router.DefaultConfig()}, nil)
		flap := func() {
			for _, dead := range []bool{true, false} {
				if err := n.SetLinkFault(120, topology.East, dead); err != nil {
					t.Fatal(err)
				}
			}
		}
		flap() // sizes the scratch
		if got := testing.AllocsPerRun(3, flap); got > 3 {
			t.Errorf("%s 16x16: a kill and repair allocate %.0f times, want <= 3 (the published table only)", topo, got)
		}
		n.Close()
	}
}

// BenchmarkBuildRoutes is the in-repo layer number under SetLinkFault:
// one full table build with one dead link, scratch already sized.
func BenchmarkBuildRoutes(b *testing.B) {
	for _, kind := range []string{"mesh", "torus"} {
		for _, side := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("%s/%dx%d", kind, side, side), func(b *testing.B) {
				f := newFaultSet(b, kind, side, side)
				f.killLink(side*side/2+side/2, topology.East)
				var rb routeBuilder
				rb.build(f.topo, f.linkDead, f.routerDead)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchTable = rb.build(f.topo, f.linkDead, f.routerDead)
				}
			})
		}
	}
}

var benchTable *routeTable

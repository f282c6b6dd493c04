package traffic

import (
	"math"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

func TestUniformNeverSelf(t *testing.T) {
	d := Uniform(16)
	r := rng.New(1)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		dst := d(5, r)
		if dst == 5 {
			t.Fatal("uniform pattern returned src")
		}
		counts[dst]++
	}
	for i, c := range counts {
		if i == 5 {
			continue
		}
		want := 16000.0 / 15
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("node %d got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := topology.NewMesh(4, 4)
	d := Transpose(m)
	r := rng.New(1)
	src := m.ID(topology.Coord{X: 1, Y: 3})
	if got := d(src, r); got != m.ID(topology.Coord{X: 3, Y: 1}) {
		t.Errorf("transpose(1,3) = %v", m.Coord(got))
	}
	// Diagonal nodes fall back to uniform but never self.
	diag := m.ID(topology.Coord{X: 2, Y: 2})
	for i := 0; i < 100; i++ {
		if d(diag, r) == diag {
			t.Fatal("diagonal transpose returned src")
		}
	}
}

func TestTransposeNeedsSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-square transpose")
		}
	}()
	Transpose(topology.NewMesh(4, 2))
}

func TestBitComplement(t *testing.T) {
	m := topology.NewMesh(8, 8)
	d := BitComplement(m)
	r := rng.New(1)
	src := m.ID(topology.Coord{X: 1, Y: 2})
	if got := d(src, r); got != m.ID(topology.Coord{X: 6, Y: 5}) {
		t.Errorf("bitcomplement(1,2) = %v", m.Coord(got))
	}
}

func TestTornado(t *testing.T) {
	m := topology.NewMesh(8, 8)
	d := Tornado(m)
	r := rng.New(1)
	src := m.ID(topology.Coord{X: 1, Y: 3})
	if got := d(src, r); got != m.ID(topology.Coord{X: 5, Y: 3}) {
		t.Errorf("tornado(1,3) = %v", m.Coord(got))
	}
}

func TestNeighbor(t *testing.T) {
	m := topology.NewMesh(4, 4)
	d := Neighbor(m)
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		src := r.Intn(16)
		dst := d(src, r)
		if m.HopsXY(src, dst) != 1 {
			t.Fatalf("neighbor pattern: %d -> %d is %d hops", src, dst, m.HopsXY(src, dst))
		}
	}
}

func TestHotspot(t *testing.T) {
	d := Hotspot(64, []int{0, 7}, 0.5)
	r := rng.New(3)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		dst := d(30, r)
		if dst == 30 {
			t.Fatal("hotspot returned src")
		}
		if dst == 0 || dst == 7 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.45 || frac > 0.60 {
		t.Errorf("hot fraction = %v, want ~0.5", frac)
	}
}

func TestSizeFns(t *testing.T) {
	r := rng.New(4)
	if FixedSize(5)(r) != 5 {
		t.Fatal("FixedSize broken")
	}
	bi := Bimodal(1, 5, 0.7)
	short := 0
	for i := 0; i < 10000; i++ {
		switch bi(r) {
		case 1:
			short++
		case 5:
		default:
			t.Fatal("bimodal returned unexpected size")
		}
	}
	if f := float64(short) / 10000; math.Abs(f-0.7) > 0.03 {
		t.Errorf("short fraction = %v", f)
	}
}

func TestSyntheticRate(t *testing.T) {
	s := NewSynthetic(4, 0.25, Uniform(4), FixedSize(1), 7)
	total := 0
	const cycles = 20000
	for c := 0; c < cycles; c++ {
		for node := 0; node < 4; node++ {
			total += len(s.Offered(node, sim.Cycle(c)))
		}
	}
	got := float64(total) / (4 * cycles)
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("offered rate = %v, want 0.25", got)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	mk := func() []int {
		s := NewSynthetic(8, 0.3, Uniform(8), Bimodal(1, 5, 0.5), 42)
		var log []int
		for c := 0; c < 500; c++ {
			for node := 0; node < 8; node++ {
				for _, p := range s.Offered(node, sim.Cycle(c)) {
					log = append(log, node, p.Dst, p.Size)
				}
			}
		}
		return log
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestSyntheticStopAt(t *testing.T) {
	s := NewSynthetic(2, 1.0, Uniform(2), FixedSize(1), 1)
	s.StopAt(10)
	if len(s.Offered(0, 9)) == 0 {
		t.Fatal("no packet before stop with rate 1")
	}
	if len(s.Offered(0, 10)) != 0 {
		t.Fatal("packet offered at stop cycle")
	}
}

func TestTraceReplay(t *testing.T) {
	tr := NewTrace([]TraceEntry{
		{Cycle: 5, Src: 1, Dst: 2, Size: 3, Class: flit.Response},
		{Cycle: 5, Src: 1, Dst: 3, Size: 1},
		{Cycle: 9, Src: 2, Dst: 0, Size: 2},
	})
	if got := tr.Offered(1, 4); len(got) != 0 {
		t.Fatalf("early offer: %v", got)
	}
	got := tr.Offered(1, 5)
	if len(got) != 2 || got[0].Dst != 2 || got[0].Size != 3 || got[1].Dst != 3 {
		t.Fatalf("offer at 5: %+v", got)
	}
	if got := tr.Offered(2, 20); len(got) != 1 || got[0].Dst != 0 {
		t.Fatalf("late offer: %+v", got)
	}
	for node := 0; node < 4; node++ {
		if got := tr.Offered(node, 100); len(got) != 0 {
			t.Fatalf("node %d offered %+v after the trace drained", node, got)
		}
	}
}

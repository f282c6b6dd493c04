package core

import (
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// bench wraps a single router and emulates its neighbourhood: it echoes
// downstream credits back (with one cycle of latency, like a real link)
// and collects ejected flits per output port.
type bench struct {
	t       *testing.T
	r       *Router
	mesh    topology.Mesh
	cycle   sim.Cycle
	arrived map[topology.Port][]arrival
	// pendingCredits are credits generated this cycle, applied next cycle.
	pendingCredits []CreditIn
	credits        []router.Credit // credits the router sent upstream
}

type arrival struct {
	f   *flit.Flit
	dvc int
	at  sim.Cycle
}

// newBench builds a router with id 4 at the centre of a 3x3 mesh, so all
// five ports are meaningful.
func newBench(t *testing.T, cfg router.Config) *bench {
	t.Helper()
	mesh := topology.NewMesh(3, 3)
	r, err := New(4, mesh, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &bench{t: t, r: r, mesh: mesh, arrived: map[topology.Port][]arrival{}}
}

func ftCfg() router.Config {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	cfg.Classes = 1
	return cfg
}

func baseCfg() router.Config {
	cfg := router.DefaultConfig()
	cfg.Classes = 1
	return cfg
}

// inject delivers a flit into input port p, VC v, before the next tick.
func (b *bench) inject(p topology.Port, v int, f *flit.Flit) {
	b.r.AcceptFlit(router.InFlit{In: p, VC: v, F: f})
}

// step advances one cycle, echoing downstream credits and collecting
// outputs.
func (b *bench) step() {
	for _, c := range b.pendingCredits {
		b.r.AcceptCredit(c)
	}
	b.pendingCredits = b.pendingCredits[:0]

	b.r.Tick(b.cycle)

	for _, of := range b.r.TakeOutFlits() {
		b.arrived[of.Out] = append(b.arrived[of.Out], arrival{f: of.F, dvc: of.DownVC, at: b.cycle})
		// Downstream consumes instantly and returns the credit next cycle.
		b.pendingCredits = append(b.pendingCredits, CreditIn{
			Out:    of.Out,
			VC:     of.DownVC,
			VCFree: of.F.Kind.IsTail(),
		})
	}
	b.credits = append(b.credits, b.r.TakeOutCredits()...)
	b.cycle++
}

func (b *bench) run(n int) {
	for i := 0; i < n; i++ {
		b.step()
	}
}

// sendPacket injects a size-flit packet into (port, vc) heading to dst,
// one flit per cycle, stepping as it goes.
func (b *bench) sendPacket(p topology.Port, v int, dst, size int) *flit.Packet {
	pkt := &flit.Packet{ID: 1, Src: b.r.ID, Dst: dst, Size: size, CreatedAt: b.cycle}
	for _, f := range flit.Segment(pkt) {
		b.inject(p, v, f)
		b.step()
	}
	return pkt
}

func TestSingleFlitPipelineLatency(t *testing.T) {
	for _, cfg := range []router.Config{baseCfg(), ftCfg()} {
		b := newBench(t, cfg)
		east := b.mesh.ID(topology.Coord{X: 2, Y: 1})
		pkt := &flit.Packet{ID: 1, Src: 4, Dst: east, Size: 1}
		b.inject(topology.West, 0, flit.Segment(pkt)[0])
		b.run(10)
		got := b.arrived[topology.East]
		if len(got) != 1 {
			t.Fatalf("ft=%v: %d flits arrived at East, want 1", cfg.FaultTolerant, len(got))
		}
		// 4-stage pipeline: buffered+RC at cycle 0, VA at 1, SA at 2,
		// XB at 3.
		if got[0].at != 3 {
			t.Errorf("ft=%v: flit left at cycle %d, want 3 (4-stage pipeline)", cfg.FaultTolerant, got[0].at)
		}
	}
}

func TestMultiFlitInOrderBackToBack(t *testing.T) {
	b := newBench(t, ftCfg())
	east := b.mesh.ID(topology.Coord{X: 2, Y: 1})
	pkt := &flit.Packet{ID: 2, Src: 4, Dst: east, Size: 4}
	for _, f := range flit.Segment(pkt) {
		b.inject(topology.West, 1, f)
		b.step()
	}
	b.run(10)
	got := b.arrived[topology.East]
	if len(got) != 4 {
		t.Fatalf("%d flits arrived, want 4", len(got))
	}
	for i, a := range got {
		if a.f.Seq != i {
			t.Errorf("arrival %d has seq %d", i, a.f.Seq)
		}
	}
	// Body/tail flits stream one per cycle behind the head.
	for i := 1; i < 4; i++ {
		if got[i].at != got[i-1].at+1 {
			t.Errorf("flit %d at %d, flit %d at %d: not back-to-back", i-1, got[i-1].at, i, got[i].at)
		}
	}
}

func TestRoutingAllDirections(t *testing.T) {
	// From the centre of the 3x3 mesh, packets to each neighbour and to
	// self leave through the right ports.
	dests := map[topology.Port]topology.Coord{
		topology.North: {X: 1, Y: 0},
		topology.South: {X: 1, Y: 2},
		topology.East:  {X: 2, Y: 1},
		topology.West:  {X: 0, Y: 1},
		topology.Local: {X: 1, Y: 1},
	}
	for wantPort, c := range dests {
		b := newBench(t, ftCfg())
		pkt := &flit.Packet{ID: 3, Src: 4, Dst: b.mesh.ID(c), Size: 1}
		b.inject(topology.Local, 0, flit.Segment(pkt)[0])
		b.run(10)
		if n := len(b.arrived[wantPort]); n != 1 {
			t.Errorf("dst %v: %d flits at %v, want 1", c, n, wantPort)
		}
	}
}

func TestTailFreesVCAndCreditsFlow(t *testing.T) {
	b := newBench(t, ftCfg())
	east := b.mesh.ID(topology.Coord{X: 2, Y: 1})
	b.sendPacket(topology.West, 0, east, 3)
	b.run(10)
	q := b.r.InputVC(topology.West, 0)
	if q.G.String() != "I" || !q.Empty() {
		t.Fatalf("input VC not reset after tail: %v", q)
	}
	// Three credits must have been sent upstream for West/vc0, the last
	// with VCFree.
	var westCredits []router.Credit
	for _, c := range b.credits {
		if c.In == topology.West && c.VC == 0 {
			westCredits = append(westCredits, c)
		}
	}
	if len(westCredits) != 3 {
		t.Fatalf("%d credits for West/vc0, want 3", len(westCredits))
	}
	if !westCredits[2].VCFree || westCredits[0].VCFree || westCredits[1].VCFree {
		t.Fatalf("VCFree pattern wrong: %+v", westCredits)
	}
	// Downstream VC must be reallocatable: a second packet flows.
	b.sendPacket(topology.West, 0, east, 2)
	b.run(10)
	if len(b.arrived[topology.East]) != 5 {
		t.Fatalf("second packet did not arrive: %d flits total", len(b.arrived[topology.East]))
	}
}

func TestCreditBackpressure(t *testing.T) {
	// Without credit echo, at most Depth flits can leave for one output
	// VC; the rest stall until credits return.
	cfg := ftCfg()
	b := newBench(t, cfg)
	east := b.mesh.ID(topology.Coord{X: 2, Y: 1})
	pkt := &flit.Packet{ID: 4, Src: 4, Dst: east, Size: 6}
	flits := flit.Segment(pkt)
	// Manually step without echoing downstream credits, while respecting
	// upstream credits for West/vc0 like a real upstream router would.
	upCredits := cfg.Depth
	next := 0
	for i := 0; i < 25; i++ {
		if next < len(flits) && upCredits > 0 {
			b.inject(topology.West, 0, flits[next])
			next++
			upCredits--
		}
		b.r.Tick(b.cycle)
		for _, of := range b.r.TakeOutFlits() {
			b.arrived[of.Out] = append(b.arrived[of.Out], arrival{f: of.F, dvc: of.DownVC, at: b.cycle})
		}
		for _, c := range b.r.TakeOutCredits() {
			if c.In == topology.West && c.VC == 0 {
				upCredits++
			}
		}
		b.cycle++
	}
	if n := len(b.arrived[topology.East]); n != cfg.Depth {
		t.Fatalf("%d flits left without credits, want %d (buffer depth)", n, cfg.Depth)
	}
	// Return one credit: exactly one more flit moves.
	b.r.AcceptCredit(CreditIn{Out: topology.East, VC: b.arrived[topology.East][0].dvc})
	for i := 0; i < 5; i++ {
		b.r.Tick(b.cycle)
		for _, of := range b.r.TakeOutFlits() {
			b.arrived[of.Out] = append(b.arrived[of.Out], arrival{f: of.F, dvc: of.DownVC, at: b.cycle})
		}
		b.cycle++
	}
	if n := len(b.arrived[topology.East]); n != cfg.Depth+1 {
		t.Fatalf("%d flits after one credit, want %d", n, cfg.Depth+1)
	}
}

func TestTwoFlowsDifferentOutputsNoInterference(t *testing.T) {
	b := newBench(t, ftCfg())
	east := b.mesh.ID(topology.Coord{X: 2, Y: 1})
	north := b.mesh.ID(topology.Coord{X: 1, Y: 0})
	pe := &flit.Packet{ID: 5, Src: 4, Dst: east, Size: 2}
	pn := &flit.Packet{ID: 6, Src: 4, Dst: north, Size: 2}
	fe, fn := flit.Segment(pe), flit.Segment(pn)
	// Interleave on two different input ports.
	b.inject(topology.West, 0, fe[0])
	b.inject(topology.South, 0, fn[0])
	b.step()
	b.inject(topology.West, 0, fe[1])
	b.inject(topology.South, 0, fn[1])
	b.run(12)
	if len(b.arrived[topology.East]) != 2 || len(b.arrived[topology.North]) != 2 {
		t.Fatalf("arrivals E=%d N=%d, want 2/2", len(b.arrived[topology.East]), len(b.arrived[topology.North]))
	}
}

func TestContentionSharedOutputSerializes(t *testing.T) {
	b := newBench(t, ftCfg())
	east := b.mesh.ID(topology.Coord{X: 2, Y: 1})
	p1 := &flit.Packet{ID: 7, Src: 4, Dst: east, Size: 1}
	p2 := &flit.Packet{ID: 8, Src: 4, Dst: east, Size: 1}
	b.inject(topology.West, 0, flit.Segment(p1)[0])
	b.inject(topology.North, 0, flit.Segment(p2)[0])
	b.run(12)
	got := b.arrived[topology.East]
	if len(got) != 2 {
		t.Fatalf("%d arrivals, want 2", len(got))
	}
	if got[0].at == got[1].at {
		t.Fatal("two flits crossed one output mux in the same cycle")
	}
	if got[0].dvc == got[1].dvc {
		t.Fatal("two packets allocated the same downstream VC")
	}
}

// TestNewRouterIsOneBlock pins the router's layout as a count of the
// objects core.New allocates for the paper's protected 5-port, 4-VC
// router: 32, where the pointer-graph layout (one heap object per VC,
// per VC buffer, per input port, per RC unit, per credit and busy row)
// allocated 99, 93 of them retained per node of a network. A change that
// puts a per-port or per-VC object back on the heap fails here.
func TestNewRouterIsOneBlock(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	const maxObjects = 32
	if got := testing.AllocsPerRun(50, func() { MustNew(9, mesh, cfg) }); got > maxObjects {
		t.Errorf("core.New allocates %.0f objects, want <= %d", got, maxObjects)
	}
	// The slab and the port view are the same VCs.
	r := MustNew(9, mesh, cfg)
	for p := 0; p < cfg.Ports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			if r.InputVC(topology.Port(p), v) != &r.vcs[p*cfg.VCs+v] {
				t.Fatalf("InputVC(%d, %d) is not slab entry %d", p, v, p*cfg.VCs+v)
			}
		}
	}
}

// TestAcceptRefusesMissingVCs pins the range check of the latch entry
// points: the VC slab is flat, so a VC index past the port's VCs would
// otherwise land on the next port's VC instead of failing.
func TestAcceptRefusesMissingVCs(t *testing.T) {
	b := newBench(t, ftCfg())
	for name, accept := range map[string]func(){
		"flit VC":     func() { b.inject(topology.North, 4, &flit.Flit{}) },
		"flit port":   func() { b.inject(topology.Port(5), 0, &flit.Flit{}) },
		"credit VC":   func() { b.r.AcceptCredit(CreditIn{Out: topology.East, VC: -1}) },
		"credit port": func() { b.r.AcceptCredit(CreditIn{Out: topology.Port(7), VC: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range was accepted", name)
				}
			}()
			accept()
		}()
	}
}

package core

import (
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// eastOf returns the node id east of the 3x3-mesh centre.
func eastOf(b *bench) int { return b.mesh.ID(topology.Coord{X: 2, Y: 1}) }

// --- RC stage (Section V-A) ---

func TestRCDuplicateCoversPrimaryFault(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.r.SetRCFault(topology.West, 0, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with a single RC fault")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(10)
	got := b.arrived[topology.East]
	if len(got) != 1 {
		t.Fatalf("%d arrivals, want 1", len(got))
	}
	// Spatial redundancy: no latency penalty (Section VI-B).
	if got[0].at != 3 {
		t.Errorf("latency with duplicate RC = %d cycles, want 3", got[0].at)
	}
	if n := b.count(obs.KRCDuplicateUses, topology.West); n != 1 {
		t.Errorf("West rc.duplicate_uses = %d, want 1", n)
	}
}

func TestRCBothCopiesFaultyFails(t *testing.T) {
	b := newBench(t, ftCfg())
	b.r.SetRCFault(topology.West, 0, true)
	b.r.SetRCFault(topology.West, 1, true)
	if b.r.Functional() {
		t.Fatal("router functional with both RC copies dead")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(20)
	if len(b.arrived[topology.East]) != 0 {
		t.Fatal("packet routed despite dead RC unit")
	}
	// Other ports keep working.
	pkt2 := &flit.Packet{ID: 2, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.North, 0, flit.Segment(pkt2)[0])
	b.run(10)
	if len(b.arrived[topology.East]) != 1 {
		t.Fatal("healthy port stopped working")
	}
}

func TestBaselineRCFaultKillsPort(t *testing.T) {
	b := newBench(t, baseCfg())
	b.r.SetRCFault(topology.West, 0, true)
	if b.r.Functional() {
		t.Fatal("baseline functional with RC fault")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(20)
	if len(b.arrived[topology.East]) != 0 {
		t.Fatal("baseline routed through faulty RC")
	}
}

// --- VA stage 1 (Section V-B1) ---

func TestVA1BorrowScenario1NoExtraLatency(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.r.SetVA1Fault(topology.West, 0, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one VA1 fault")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(10)
	got := b.arrived[topology.East]
	if len(got) != 1 {
		t.Fatalf("%d arrivals, want 1", len(got))
	}
	// Scenario 1: the lender was idle, so borrowing costs no cycle.
	if got[0].at != 3 {
		t.Errorf("borrow latency = %d cycles, want 3", got[0].at)
	}
	if n := b.count(obs.KVA1Borrows, topology.West); n != 1 {
		t.Errorf("West va.borrows = %d, want 1", n)
	}
}

func TestVA1BorrowScenario2OneCycleStall(t *testing.T) {
	// Two VCs, both in VCAlloc the same cycle, borrower's arbiters
	// faulty: the borrower must wait one cycle for the lender to finish
	// (Section V-B1, Scenario 2).
	cfg := ftCfg()
	cfg.VCs = 2
	b := newObservedBench(t, cfg)
	b.r.SetVA1Fault(topology.West, 0, true)
	east := eastOf(b)
	p0 := &flit.Packet{ID: 1, Src: 4, Dst: east, Size: 1}
	p1 := &flit.Packet{ID: 2, Src: 4, Dst: east, Size: 1}
	// Hand-craft the race: both VCs hold a routed head, entering VA the
	// same cycle.
	q0, q1 := b.r.InputVC(topology.West, 0), b.r.InputVC(topology.West, 1)
	q0.Push(flit.Segment(p0)[0])
	b.r.setVCState(topology.West, 0, vc.VCAlloc, topology.East)
	q1.Push(flit.Segment(p1)[0])
	b.r.setVCState(topology.West, 1, vc.VCAlloc, topology.East)
	b.run(12)
	if b.count(obs.KVA1BorrowStalls, topology.West) == 0 {
		t.Error("expected at least one West borrow stall (Scenario 2)")
	}
	if n := b.count(obs.KVA1Borrows, topology.West); n != 1 {
		t.Errorf("West va.borrows = %d, want 1", n)
	}
	got := b.arrived[topology.East]
	if len(got) != 2 {
		t.Fatalf("%d arrivals, want 2", len(got))
	}
	// The healthy VC's packet (ID 2) proceeds first; the borrower lands
	// exactly one cycle behind the contention-free schedule.
	if got[0].f.Pkt.ID != 2 {
		t.Errorf("healthy VC did not win first: first arrival pkt %d", got[0].f.Pkt.ID)
	}
}

func TestVA1AllSetsFaultyFails(t *testing.T) {
	b := newBench(t, ftCfg())
	for v := 0; v < 4; v++ {
		b.r.SetVA1Fault(topology.West, v, true)
	}
	if b.r.Functional() {
		t.Fatal("router functional with all VA1 sets faulty on a port")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(20)
	if len(b.arrived[topology.East]) != 0 {
		t.Fatal("packet allocated with no healthy arbiter set")
	}
}

func TestVA1ThreeFaultsStillWork(t *testing.T) {
	// Paper Section VIII-B: a port tolerates 3 VA1 faults (borrowing from
	// the single surviving set).
	b := newBench(t, ftCfg())
	for v := 0; v < 3; v++ {
		b.r.SetVA1Fault(topology.West, v, true)
	}
	if !b.r.Functional() {
		t.Fatal("router not functional with 3 of 4 VA1 sets faulty")
	}
	east := eastOf(b)
	for i := 0; i < 3; i++ {
		pkt := &flit.Packet{ID: uint64(i), Src: 4, Dst: east, Size: 2}
		for _, f := range flit.Segment(pkt) {
			b.inject(topology.West, 0, f)
			b.step()
		}
		b.run(8)
	}
	if n := len(b.arrived[topology.East]); n != 6 {
		t.Fatalf("%d flits arrived, want 6", n)
	}
}

// --- VA stage 2 (Section V-B3) ---

func TestVA2FaultRetriesWithAnotherVC(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	// With round-robin stage-1 starting at dvc 0, the first attempt hits
	// the faulty arbiter and costs one recompute cycle.
	b.r.SetVA2Fault(topology.East, 0, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one VA2 fault")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(12)
	got := b.arrived[topology.East]
	if len(got) != 1 {
		t.Fatalf("%d arrivals, want 1", len(got))
	}
	if got[0].at != 4 {
		t.Errorf("latency = %d cycles, want 4 (one recompute cycle)", got[0].at)
	}
	if got[0].dvc == 0 {
		t.Error("packet was allocated the downstream VC with the faulty arbiter")
	}
	if n := b.count(obs.KVA2Retries, topology.East); n != 1 {
		t.Errorf("East va.retries = %d, want 1", n)
	}

	// Two heads from different ports ask for the faulty arbiter's VC in
	// the same cycle: the stage-2 fault costs each of them a retry.
	b = newObservedBench(t, ftCfg())
	b.r.SetVA2Fault(topology.East, 0, true)
	b.inject(topology.West, 0, flit.Segment(&flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1})[0])
	b.inject(topology.North, 0, flit.Segment(&flit.Packet{ID: 2, Src: 4, Dst: eastOf(b), Size: 1})[0])
	b.run(12)
	if n := len(b.arrived[topology.East]); n != 2 {
		t.Fatalf("%d arrivals from two ports, want 2", n)
	}
	if n := b.count(obs.KVA2Retries, topology.East); n != 2 {
		t.Errorf("East va.retries = %d with two requesters of the faulty arbiter, want 2", n)
	}
}

func TestVA2AllFaultyFails(t *testing.T) {
	b := newBench(t, ftCfg())
	for v := 0; v < 4; v++ {
		b.r.SetVA2Fault(topology.East, v, true)
	}
	if b.r.Functional() {
		t.Fatal("router functional with every East VA2 arbiter faulty")
	}
	// One message class losing all its stage-2 arbiters is enough: class
	// 0 owns downstream VCs 0 and 1 of the paper's 4 VCs in 2 classes.
	cfg := ftCfg()
	cfg.Classes = 2
	b = newBench(t, cfg)
	b.r.SetVA2Fault(topology.East, 0, true)
	b.r.SetVA2Fault(topology.East, 2, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one VA2 arbiter of each class faulty")
	}
	b.r.SetVA2Fault(topology.East, 1, true)
	if b.r.Functional() {
		t.Fatal("router functional with class 0's East VA2 arbiters all faulty")
	}
}

// --- SA stage 1 (Section V-C1) ---

func TestSABypassDefaultWinnerReady(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.r.SetSA1Fault(topology.West, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one SA1 fault")
	}
	// Default winner starts at VC 0; inject there.
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 2}
	for _, f := range flit.Segment(pkt) {
		b.inject(topology.West, 0, f)
		b.step()
	}
	b.run(10)
	if n := len(b.arrived[topology.East]); n != 2 {
		t.Fatalf("%d arrivals, want 2", n)
	}
	if b.count(obs.KSABypassGrants, topology.West) == 0 {
		t.Error("no bypass grants recorded at West")
	}
	if n := b.count(obs.KSATransfers, topology.West); n != 0 {
		t.Errorf("unexpected transfers: %d", n)
	}
}

func TestSABypassTransfersIntoDefaultWinner(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.r.SetSA1Fault(topology.West, true)
	// Inject into VC 1 while the default winner is VC 0 (empty): the
	// router must transfer flits+state into VC 0, costing one cycle.
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 3}
	for _, f := range flit.Segment(pkt) {
		b.inject(topology.West, 1, f)
		b.step()
	}
	b.run(12)
	got := b.arrived[topology.East]
	if len(got) != 3 {
		t.Fatalf("%d arrivals, want 3", len(got))
	}
	if n := b.count(obs.KSATransfers, topology.West); n != 1 {
		t.Errorf("West sa.transfers = %d, want 1", n)
	}
	// Credits must be returned for the ORIGINAL VC (the router adopts
	// the packet where it sits instead of moving it), so the upstream's
	// bookkeeping stays consistent.
	for _, c := range b.credits {
		if c.In == topology.West && c.VC != 1 {
			t.Fatalf("credit returned for VC %d, want 1 (origin)", c.VC)
		}
	}
	// The head flit pays the transfer cycle: 3 (pipeline) + 1.
	if got[0].at != 4 {
		t.Errorf("head arrived at %d, want 4 (one transfer cycle)", got[0].at)
	}
}

func TestSABypassPlusBypassFaultFails(t *testing.T) {
	b := newBench(t, ftCfg())
	b.r.SetSA1Fault(topology.West, true)
	b.r.SetSA1BypassFault(topology.West, true)
	if b.r.Functional() {
		t.Fatal("router functional with SA1 arbiter and bypass both faulty")
	}
}

// --- SA stage 2 + XB (Sections V-C2, V-D) ---

func TestXBFaultUsesSecondaryPath(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.r.SetXBFault(topology.East, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one XB mux fault")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 2}
	for _, f := range flit.Segment(pkt) {
		b.inject(topology.West, 0, f)
		b.step()
	}
	b.run(10)
	got := b.arrived[topology.East]
	if len(got) != 2 {
		t.Fatalf("%d arrivals at East, want 2", len(got))
	}
	if n := b.count(obs.KXBSecondary, topology.East); n != 2 {
		t.Errorf("East xb.secondary = %d, want 2", n)
	}
	// FSP/SP were set at RC time.
	if got[0].at != 3 {
		t.Errorf("secondary-path latency = %d, want 3 (no cycle penalty)", got[0].at)
	}
}

func TestSA2FaultUsesSecondaryPath(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.r.SetSA2Fault(topology.East, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one SA2 fault")
	}
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 1}
	b.inject(topology.West, 0, flit.Segment(pkt)[0])
	b.run(10)
	if len(b.arrived[topology.East]) != 1 {
		t.Fatal("packet did not reach East with faulty SA2 arbiter")
	}
	if n := b.count(obs.KXBSecondary, topology.East); n != 1 {
		t.Errorf("East xb.secondary = %d, want 1", n)
	}
}

func TestXBPrimaryAndSecondaryFaultFails(t *testing.T) {
	b := newBench(t, ftCfg())
	b.r.SetXBFault(topology.East, true)
	b.r.SetXBSecondaryFault(topology.East, true)
	if b.r.Functional() {
		t.Fatal("router functional with both East paths dead")
	}
}

func TestXBSecondaryContention(t *testing.T) {
	// With East's mux faulty, East traffic detours through the secondary
	// mux — which is also some other output's primary. Flows to both
	// outputs must still all arrive, serialized on the shared mux.
	b := newBench(t, ftCfg())
	b.r.SetXBFault(topology.East, true)
	sec := topology.Port(1) // secondary(East=2) is mux 1 (North) per the assignment
	if got := b.mesh.RouteXY(4, eastOf(b)); got != topology.East {
		t.Fatal("sanity: route must be East")
	}
	north := b.mesh.ID(topology.Coord{X: 1, Y: 0})
	for i := 0; i < 3; i++ {
		pe := &flit.Packet{ID: uint64(10 + i), Src: 4, Dst: eastOf(b), Size: 1}
		pn := &flit.Packet{ID: uint64(20 + i), Src: 4, Dst: north, Size: 1}
		b.inject(topology.West, i, flit.Segment(pe)[0])
		b.inject(topology.South, i, flit.Segment(pn)[0])
	}
	b.run(25)
	if n := len(b.arrived[topology.East]); n != 3 {
		t.Fatalf("%d East arrivals, want 3", n)
	}
	if n := len(b.arrived[sec]); n != 3 {
		t.Fatalf("%d North arrivals, want 3", n)
	}
	// The shared mux carries at most one flit per cycle.
	seen := map[any]int{}
	for _, a := range b.arrived[topology.East] {
		seen[a.at]++
	}
	for _, a := range b.arrived[sec] {
		seen[a.at]++
	}
	for cyc, n := range seen {
		if n > 1 {
			t.Fatalf("cycle %v: %d flits through shared mux", cyc, n)
		}
	}
}

// --- Multi-fault operation (the paper's headline claim) ---

func TestFourFaultsOnePerStageStillDelivers(t *testing.T) {
	// "Assuming that each individual pipeline stage is affected by only
	// one permanent fault, the protected router pipeline will be able to
	// tolerate four permanent faults." (Section IV)
	b := newObservedBench(t, ftCfg())
	b.r.SetRCFault(topology.West, 0, true)
	b.r.SetVA1Fault(topology.West, 0, true)
	b.r.SetSA1Fault(topology.West, true)
	b.r.SetXBFault(topology.East, true)
	if !b.r.Functional() {
		t.Fatal("router not functional with one fault per stage")
	}
	east := eastOf(b)
	for i := 0; i < 4; i++ {
		pkt := &flit.Packet{ID: uint64(i), Src: 4, Dst: east, Size: 3}
		for _, f := range flit.Segment(pkt) {
			b.inject(topology.West, 0, f)
			b.step()
		}
		b.run(10)
	}
	if n := len(b.arrived[topology.East]); n != 12 {
		t.Fatalf("%d flits arrived under 4 faults, want 12", n)
	}
	for _, c := range []struct {
		k obs.Kind
		p topology.Port
	}{
		{obs.KRCDuplicateUses, topology.West}, {obs.KVA1Borrows, topology.West},
		{obs.KSABypassGrants, topology.West}, {obs.KXBSecondary, topology.East},
	} {
		if b.count(c.k, c.p) == 0 {
			t.Errorf("%v never counted at port %v: not every mechanism engaged", c.k, c.p)
		}
	}
}

func TestBaselineAnyFaultNotFunctional(t *testing.T) {
	muts := []func(*Router){
		func(r *Router) { r.SetRCFault(topology.North, 0, true) },
		func(r *Router) { r.SetVA1Fault(topology.South, 2, true) },
		func(r *Router) { r.SetVA2Fault(topology.East, 1, true) },
		func(r *Router) { r.SetSA1Fault(topology.Local, true) },
		func(r *Router) { r.SetSA2Fault(topology.West, true) },
		func(r *Router) { r.SetXBFault(topology.North, true) },
	}
	for i, mut := range muts {
		b := newBench(t, baseCfg())
		if !b.r.Functional() {
			t.Fatalf("case %d: fresh baseline not functional", i)
		}
		mut(b.r)
		if b.r.Functional() {
			t.Errorf("case %d: baseline functional after a fault", i)
		}
	}
}

// TestBaselineHasNoDuplicateSites: the baseline router shares the
// protected router's crossbar, but its design has no duplicate RC unit
// and no secondary crossbar paths, so naming one of those sites panics.
func TestBaselineHasNoDuplicateSites(t *testing.T) {
	b := newBench(t, baseCfg())
	for name, site := range map[string]func(){
		"SetRCFault copy 1":   func() { b.r.SetRCFault(topology.East, 1, true) },
		"SetXBSecondaryFault": func() { b.r.SetXBSecondaryFault(topology.East, true) },
		"XBSecondaryFault":    func() { b.r.XBSecondaryFault(topology.East) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("baseline %s did not panic", name)
				}
			}()
			site()
		}()
	}
	if !b.r.Functional() || b.r.RCFault(topology.East, 1) {
		t.Fatal("a refused baseline fault site left a mark")
	}
}

func TestProtectedFaultFreeMatchesBaseline(t *testing.T) {
	// "In the fault-free scenario, the protected crossbar behaves just
	// like the baseline crossbar" — we require it of the whole router:
	// identical arrival cycles for an identical stimulus.
	run := func(cfg router.Config) []arrival {
		b := newBench(t, cfg)
		east := eastOf(b)
		north := b.mesh.ID(topology.Coord{X: 1, Y: 0})
		for i := 0; i < 3; i++ {
			pe := &flit.Packet{ID: uint64(i), Src: 4, Dst: east, Size: 2}
			pn := &flit.Packet{ID: uint64(100 + i), Src: 4, Dst: north, Size: 2}
			for _, f := range flit.Segment(pe) {
				b.inject(topology.West, i, f)
			}
			for _, f := range flit.Segment(pn) {
				b.inject(topology.South, i, f)
			}
			b.step()
		}
		b.run(20)
		var all []arrival
		all = append(all, b.arrived[topology.East]...)
		all = append(all, b.arrived[topology.North]...)
		return all
	}
	ba, ft := run(baseCfg()), run(ftCfg())
	if len(ba) != len(ft) {
		t.Fatalf("arrival counts differ: baseline %d vs protected %d", len(ba), len(ft))
	}
	for i := range ba {
		if ba[i].at != ft[i].at || ba[i].f.Pkt.ID != ft[i].f.Pkt.ID {
			t.Fatalf("arrival %d differs: baseline (pkt %d @%d) vs protected (pkt %d @%d)",
				i, ba[i].f.Pkt.ID, ba[i].at, ft[i].f.Pkt.ID, ft[i].at)
		}
	}
}

package core

import (
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// These tests pin the occupancy state the pipeline derives from the VCs:
// when a router may skip its tick, and that the incremental bookkeeping
// agrees with a recount.

// TestEmptyRouterInBypassKeepsTicking pins the one exception to "an
// empty router is quiescent": with an SA stage-1 arbiter faulty the
// bypass default winner rotates every BypassRotatePeriod cycles whether
// or not the port holds a flit, so skipping those ticks would change the
// winner the next packet meets.
func TestEmptyRouterInBypassKeepsTicking(t *testing.T) {
	cfg := ftCfg()
	cfg.BypassRotatePeriod = 4
	b := newBench(t, cfg)
	if !b.r.Quiescent() {
		t.Fatal("fresh router is not quiescent")
	}
	b.r.SetSA1Fault(topology.West, true)
	b.r.SetSA1Fault(topology.West, true) // setting it twice must count once
	if b.r.Quiescent() {
		t.Error("router with a port in bypass mode reported quiescent")
	}

	// Two full trips around the VCs, one more rotation, three cycles over.
	n := 2*cfg.VCs*cfg.BypassRotatePeriod + cfg.BypassRotatePeriod + 3
	b.run(n)
	wantDW := (n / cfg.BypassRotatePeriod) % cfg.VCs
	wantRot := n % cfg.BypassRotatePeriod
	dw, rot := b.r.sa1[topology.West].BypassState()
	if dw != wantDW || rot != wantRot {
		t.Errorf("after %d empty cycles bypass state = (winner %d, %d grants), want (%d, %d)",
			n, dw, rot, wantDW, wantRot)
	}
	if a, age := b.r.saAdopted()[topology.West], b.r.saAdoptAge()[topology.West]; a != -1 || age != 0 {
		t.Errorf("empty port adopted VC %d (age %d), want none", a, age)
	}
	if err := b.r.CheckOccupancy(); err != nil {
		t.Error(err)
	}

	b.r.SetSA1Fault(topology.West, false)
	if !b.r.Quiescent() {
		t.Error("repaired empty router is not quiescent again")
	}
	b.run(n)
	if dw2, rot2 := b.r.sa1[topology.West].BypassState(); dw2 != dw || rot2 != rot {
		t.Errorf("bypass state moved to (%d, %d) with the arbiter repaired", dw2, rot2)
	}
}

// TestOccupancyTracksPackets walks a packet through an otherwise empty
// router and checks the derived state against a recount every cycle: the
// router leaves quiescence when the head arrives and returns to it once
// the tail has crossed.
func TestOccupancyTracksPackets(t *testing.T) {
	for _, cfg := range []struct {
		name string
		ft   bool
	}{{"baseline", false}, {"protected", true}} {
		t.Run(cfg.name, func(t *testing.T) {
			c := baseCfg()
			c.FaultTolerant = cfg.ft
			b := newBench(t, c)
			pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 3}
			busy := 0
			for i, f := range append(flit.Segment(pkt), make([]*flit.Flit, 8)...) {
				if f != nil {
					b.inject(topology.West, 1, f)
				}
				b.step()
				if err := b.r.CheckOccupancy(); err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
				if !b.r.Quiescent() {
					busy++
				}
			}
			if len(b.arrived[topology.East]) != 3 {
				t.Fatalf("%d flits arrived, want 3", len(b.arrived[topology.East]))
			}
			if !b.r.Quiescent() || b.r.occupied != 0 {
				t.Errorf("router not quiescent after the tail left (occupied=%d)", b.r.occupied)
			}
			if busy == 0 {
				t.Error("router never left quiescence while routing a packet")
			}
		})
	}
}

// TestCheckOccupancyCatchesBypassedWrite shows the recount is a real
// check: a G written through the InputVC pointer, behind the masks, is
// reported.
func TestCheckOccupancyCatchesBypassedWrite(t *testing.T) {
	b := newBench(t, ftCfg())
	if err := b.r.CheckOccupancy(); err != nil {
		t.Fatal(err)
	}
	b.r.InputVC(topology.West, 0).G = vc.Routing
	if err := b.r.CheckOccupancy(); err == nil {
		t.Error("CheckOccupancy accepted a VC occupied behind the masks")
	}
}

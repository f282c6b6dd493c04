package core

import (
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

// These tests cover the subtler corners of the fault-tolerance
// mechanisms: adoption expiry, bypass fairness, message-class isolation
// and counter behaviour.

func TestBypassAdoptionExpiresWithRotation(t *testing.T) {
	// With a short rotation period and two competing VCs behind a faulty
	// SA1 arbiter, both VCs' packets must make progress — the adoption
	// must not pin the port to the first packet.
	cfg := ftCfg()
	cfg.BypassRotatePeriod = 4
	b := newBench(t, cfg)
	b.r.SetSA1Fault(topology.West, true)
	east := eastOf(b)
	// Two long packets into two VCs of the bypassed port, injected while
	// respecting upstream credits (the buffers drain slowly under bypass).
	p0 := &flit.Packet{ID: 1, Src: 4, Dst: east, Size: 6}
	p1 := &flit.Packet{ID: 2, Src: 4, Dst: east, Size: 6}
	queue := [2][]*flit.Flit{flit.Segment(p0), flit.Segment(p1)}
	credits := [2]int{cfg.Depth, cfg.Depth}
	for cyc := 0; cyc < 150 && (len(queue[0]) > 0 || len(queue[1]) > 0); cyc++ {
		for v := 0; v < 2; v++ {
			if len(queue[v]) > 0 && credits[v] > 0 {
				b.inject(topology.West, v, queue[v][0])
				queue[v] = queue[v][1:]
				credits[v]--
			}
		}
		nc := len(b.credits)
		b.step()
		for _, c := range b.credits[nc:] {
			if c.In == topology.West && c.VC < 2 {
				credits[c.VC]++
			}
		}
	}
	b.run(80)
	got := b.arrived[topology.East]
	if len(got) != 12 {
		t.Fatalf("%d flits arrived, want 12 (both packets)", len(got))
	}
	// Both packet IDs must appear among deliveries.
	seen := map[uint64]int{}
	for _, a := range got {
		seen[a.f.Pkt.ID]++
	}
	if seen[1] != 6 || seen[2] != 6 {
		t.Fatalf("deliveries per packet: %v", seen)
	}
}

func TestBypassNoStarvationLongRun(t *testing.T) {
	// Sustained traffic on all four VCs of a bypassed port: every VC's
	// packets keep flowing (the rotation guarantee).
	cfg := ftCfg()
	b := newBench(t, cfg)
	b.r.SetSA1Fault(topology.West, true)
	east := eastOf(b)
	delivered := map[int]int{} // per source VC
	var pending [4]int
	nextID := uint64(1)
	for cyc := 0; cyc < 3000; cyc++ {
		for v := 0; v < 4; v++ {
			q := b.r.InputVC(topology.West, v)
			if q.Empty() && q.G.String() == "I" && pending[v] == 0 {
				pkt := &flit.Packet{ID: nextID<<4 | uint64(v), Src: 4, Dst: east, Size: 1}
				nextID++
				b.inject(topology.West, v, flit.Segment(pkt)[0])
				pending[v]++
			}
		}
		b.step()
		for _, a := range b.arrived[topology.East] {
			delivered[int(a.f.Pkt.ID&0xf)]++
			pending[a.f.Pkt.ID&0xf] = 0
		}
		b.arrived[topology.East] = nil
	}
	for v := 0; v < 4; v++ {
		if delivered[v] < 20 {
			t.Errorf("VC %d delivered only %d packets in 3000 cycles (starved)", v, delivered[v])
		}
	}
}

func TestClassIsolationInVA(t *testing.T) {
	// Request packets must only ever be allocated request-class
	// downstream VCs, responses response-class ones.
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true // Classes = 2 by default
	b := newBench(t, cfg)
	east := eastOf(b)
	req := &flit.Packet{ID: 1, Src: 4, Dst: east, Class: flit.Request, Size: 1}
	rsp := &flit.Packet{ID: 2, Src: 4, Dst: east, Class: flit.Response, Size: 1}
	// Class partition of 4 VCs: requests on VC0-1, responses on VC2-3.
	b.inject(topology.West, 0, flit.Segment(req)[0])
	b.inject(topology.West, 2, flit.Segment(rsp)[0])
	b.run(12)
	got := b.arrived[topology.East]
	if len(got) != 2 {
		t.Fatalf("%d arrivals, want 2", len(got))
	}
	for _, a := range got {
		cls := a.f.Pkt.Class
		if cls == flit.Request && a.dvc >= 2 {
			t.Errorf("request allocated response-class VC %d", a.dvc)
		}
		if cls == flit.Response && a.dvc < 2 {
			t.Errorf("response allocated request-class VC %d", a.dvc)
		}
	}
}

func TestCountersFlitsRouted(t *testing.T) {
	b := newObservedBench(t, ftCfg())
	b.sendPacket(topology.West, 0, eastOf(b), 4)
	b.run(10)
	if n := b.count(obs.KFlitsRouted, topology.East); n != 4 {
		t.Fatalf("East xb.flits_routed = %d, want 4", n)
	}
}

func TestMidPacketXBFaultRecovers(t *testing.T) {
	// Inject an XB fault while a packet is mid-flight: the grant/traverse
	// race must be handled (credit refund + secondary retry), and all
	// flits still arrive.
	b := newObservedBench(t, ftCfg())
	east := eastOf(b)
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: east, Size: 6}
	fs := flit.Segment(pkt)
	for i := 0; i < 3; i++ {
		b.inject(topology.West, 0, fs[i])
		b.step()
	}
	// Fault lands mid-packet.
	b.r.SetXBFault(topology.East, true)
	for i := 3; i < 6; i++ {
		b.inject(topology.West, 0, fs[i])
		b.step()
	}
	b.run(20)
	if n := len(b.arrived[topology.East]); n != 6 {
		t.Fatalf("%d flits arrived, want 6", n)
	}
	if b.count(obs.KXBSecondary, topology.East) == 0 {
		t.Fatal("secondary path never used after mid-packet fault")
	}
}

// TestMidPacketXBFaultBaselineCancels is the baseline's side of the
// grant/traverse race: it shares the protected router's crossbar but has
// no secondary path, so a mux fault landing between a grant and its
// traversal cancels the grant, refunds its credit, and nothing more
// leaves through the dead port.
func TestMidPacketXBFaultBaselineCancels(t *testing.T) {
	b := newObservedBench(t, baseCfg())
	fs := flit.Segment(&flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 4})
	for i := 0; i < 3; i++ {
		b.inject(topology.West, 0, fs[i])
		b.step()
	}
	if len(b.r.grants) != 1 {
		t.Fatalf("%d grants pending when the fault lands, want the head's", len(b.r.grants))
	}
	b.r.SetXBFault(topology.East, true)
	b.inject(topology.West, 0, fs[3])
	b.run(20)
	if n, sec := len(b.arrived[topology.East]), b.count(obs.KXBSecondary, topology.East); n != 0 || sec != 0 {
		t.Fatalf("%d flits left the dead port, %d through a secondary path; want none", n, sec)
	}
	for v := 0; v < b.r.cfg.VCs; v++ {
		if c := b.r.Credits(topology.East, v); c != b.r.cfg.Depth {
			t.Errorf("East vc%d holds %d credits, want the cancelled grant's refunded: %d", v, c, b.r.cfg.Depth)
		}
	}
}

func TestMidPacketSecondaryFaultFallsBack(t *testing.T) {
	// Start on the secondary path, then break it and repair the primary:
	// the effective-request refresh must switch back.
	b := newBench(t, ftCfg())
	east := eastOf(b)
	b.r.SetXBFault(topology.East, true) // start: secondary in use
	pkt := &flit.Packet{ID: 1, Src: 4, Dst: east, Size: 6}
	fs := flit.Segment(pkt)
	for i := 0; i < 3; i++ {
		b.inject(topology.West, 0, fs[i])
		b.step()
	}
	b.r.SetXBFault(topology.East, false)         // primary repaired
	b.r.SetXBSecondaryFault(topology.East, true) // secondary dies
	for i := 3; i < 6; i++ {
		b.inject(topology.West, 0, fs[i])
		b.step()
	}
	b.run(20)
	if n := len(b.arrived[topology.East]); n != 6 {
		t.Fatalf("%d flits arrived, want 6", n)
	}
}

func TestVA1BorrowManyPacketsSequential(t *testing.T) {
	// A VC with faulty arbiters sustains a long sequence of packets
	// purely through borrowing.
	b := newObservedBench(t, ftCfg())
	b.r.SetVA1Fault(topology.West, 1, true)
	east := eastOf(b)
	for i := 0; i < 10; i++ {
		pkt := &flit.Packet{ID: uint64(i), Src: 4, Dst: east, Size: 2}
		for _, f := range flit.Segment(pkt) {
			b.inject(topology.West, 1, f)
			b.step()
		}
		b.run(8)
	}
	if n := len(b.arrived[topology.East]); n != 20 {
		t.Fatalf("%d flits arrived, want 20", n)
	}
	if n := b.count(obs.KVA1Borrows, topology.West); n != 10 {
		t.Fatalf("West va.borrows = %d, want 10", n)
	}
}

func TestRouterStringAndAccessors(t *testing.T) {
	b := newBench(t, ftCfg())
	if b.r.String() == "" || !b.r.FaultTolerant() {
		t.Fatal("accessor smoke test failed")
	}
	if b.r.Config().Ports != 5 {
		t.Fatal("Config() wrong")
	}
	if b.r.FreeOutVCs(topology.East, 0) != 4 {
		t.Fatalf("FreeOutVCs = %d, want 4", b.r.FreeOutVCs(topology.East, 0))
	}
	bb := newBench(t, baseCfg())
	if bb.r.String() == "" || bb.r.FaultTolerant() {
		t.Fatal("baseline accessor smoke test failed")
	}
}

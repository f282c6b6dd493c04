package noc

import (
	"fmt"
	"strings"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

func testCfg(w, h int, ft bool) Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = ft
	rc.Classes = 1
	return Config{Width: w, Height: h, Router: rc, Warmup: 0}
}

func TestSinglePacketLatency(t *testing.T) {
	n := MustNew(testCfg(8, 8, true), nil)
	p := &flit.Packet{Dst: 63, Size: 1}
	n.Inject(0, p)
	if !n.Drain(500) {
		t.Fatal("packet not delivered")
	}
	// 14 hops: 3 cycles in the first router's pipeline after injection,
	// then 4 per additional hop (pipeline + link).
	hops := n.Mesh().HopsXY(0, 63)
	want := sim.Cycle(3 + 4*hops)
	if p.Latency() != want {
		t.Errorf("latency = %d, want %d", p.Latency(), want)
	}
	if n.Stats().Ejected() != 1 {
		t.Errorf("ejected = %d", n.Stats().Ejected())
	}
}

func TestMultiFlitPacketAcrossMesh(t *testing.T) {
	n := MustNew(testCfg(4, 4, true), nil)
	p := &flit.Packet{Dst: 15, Size: 5}
	n.Inject(0, p)
	if !n.Drain(500) {
		t.Fatal("packet not delivered")
	}
	// Tail trails the head by 4 flit-cycles.
	hops := n.Mesh().HopsXY(0, 15)
	want := sim.Cycle(3+4*hops) + 4
	if p.Latency() != want {
		t.Errorf("latency = %d, want %d", p.Latency(), want)
	}
}

func TestAllPacketsDeliveredUniform(t *testing.T) {
	cfg := testCfg(4, 4, true)
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 11)
	src.StopAt(2000)
	n := MustNew(cfg, src)
	n.Run(2000)
	if !n.Drain(5000) {
		t.Fatalf("network did not drain: %d in flight", n.Stats().InFlight())
	}
	if n.Stats().Created() == 0 {
		t.Fatal("no packets created")
	}
	if n.Stats().Created() != n.Stats().Ejected() {
		t.Fatalf("created %d != ejected %d", n.Stats().Created(), n.Stats().Ejected())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		src := traffic.NewSynthetic(16, 0.08, traffic.Uniform(16), traffic.FixedSize(3), 99)
		n := MustNew(testCfg(4, 4, true), src)
		n.Run(3000)
		return n.Stats().Ejected(), n.Stats().AvgLatency()
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d, %v) vs (%d, %v)", e1, l1, e2, l2)
	}
	if e1 == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestProtectedFaultFreeMatchesBaselineNetwork(t *testing.T) {
	run := func(ft bool) (uint64, float64) {
		src := traffic.NewSynthetic(16, 0.06, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 123)
		n := MustNew(testCfg(4, 4, ft), src)
		n.Run(4000)
		return n.Stats().Ejected(), n.Stats().AvgLatency()
	}
	eb, lb := run(false)
	ef, lf := run(true)
	if eb != ef || lb != lf {
		t.Fatalf("fault-free protected differs from baseline: (%d, %v) vs (%d, %v)", eb, lb, ef, lf)
	}
}

func TestTwoClassRequestReply(t *testing.T) {
	// Closed-loop: every request spawns a response at the destination.
	cfg := testCfg(4, 4, true)
	cfg.Router.Classes = 2
	src := newReqReply(16, 0.03, 77)
	src.stopAt = 1500
	n := MustNew(cfg, src)
	n.Run(1500)
	if !n.Drain(6000) {
		t.Fatalf("did not drain: %d in flight", n.Stats().InFlight())
	}
	st := n.Stats()
	if st.Ejected() != st.Created() {
		t.Fatalf("created %d != ejected %d", st.Created(), st.Ejected())
	}
	if src.requests == 0 || src.replies == 0 {
		t.Fatal("no closed-loop traffic")
	}
	if src.requests != src.replies {
		t.Fatalf("requests %d != replies %d after drain", src.requests, src.replies)
	}
}

// reqReply is a minimal coherence-style closed-loop workload for tests.
type reqReply struct {
	gen      *traffic.Synthetic
	stopAt   sim.Cycle
	requests uint64
	replies  uint64
}

func newReqReply(nodes int, rate float64, seed uint64) *reqReply {
	g := traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.FixedSize(1), seed)
	return &reqReply{gen: g}
}

func (rr *reqReply) Offered(node int, c sim.Cycle) []*flit.Packet {
	if rr.stopAt != 0 && c >= rr.stopAt {
		return nil
	}
	ps := rr.gen.Offered(node, c)
	rr.requests += uint64(len(ps))
	return ps
}

func (rr *reqReply) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	if p.Class != flit.Request {
		return nil
	}
	rr.replies++
	return []*flit.Packet{{Dst: p.Src, Class: flit.Response, Size: 5}}
}

func TestHighLoadNoDeadlock(t *testing.T) {
	// Near-saturation uniform traffic must keep making progress.
	src := traffic.NewSynthetic(16, 0.35, traffic.Uniform(16), traffic.FixedSize(4), 5)
	n := MustNew(testCfg(4, 4, true), src)
	n.Run(2000)
	half := n.Stats().Ejected()
	n.Run(2000)
	if n.Stats().Ejected() <= half {
		t.Fatalf("no progress in second half: %d then %d", half, n.Stats().Ejected())
	}
}

func TestFaultedNetworkStillDelivers(t *testing.T) {
	// One tolerable fault per stage, spread across routers on the main
	// diagonal: everything must still arrive (at somewhat higher latency).
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 31)
	src.StopAt(3000)
	n := MustNew(testCfg(4, 4, true), src)
	n.Router(0).SetRCFault(topology.Local, 0, true)
	n.Router(5).SetVA1Fault(topology.West, 0, true)
	n.Router(10).SetSA1Fault(topology.East, true)
	n.Router(15).SetXBFault(topology.Local, true)
	n.Router(5).SetXBFault(topology.East, true)
	n.Router(10).SetVA2Fault(topology.North, 1, true)
	if !n.Functional() {
		t.Fatal("network should remain functional with tolerable faults")
	}
	n.Run(3000)
	if !n.Drain(10000) {
		t.Fatalf("faulted network did not drain: %d in flight", n.Stats().InFlight())
	}
	if n.Stats().Created() != n.Stats().Ejected() {
		t.Fatalf("lost packets: created %d, ejected %d", n.Stats().Created(), n.Stats().Ejected())
	}
}

func TestFaultyNetworkHigherLatency(t *testing.T) {
	// The same workload through a heavily faulted (but functional)
	// network must show higher average latency than fault-free.
	run := func(faulty bool) float64 {
		src := traffic.NewSynthetic(16, 0.10, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 63)
		n := MustNew(testCfg(4, 4, true), src)
		if faulty {
			for id := 0; id < 16; id++ {
				r := n.Router(id)
				r.SetSA1Fault(topology.East, true)
				r.SetXBFault(topology.West, true)
				r.SetVA1Fault(topology.North, 0, true)
			}
		}
		n.Run(6000)
		return n.Stats().AvgLatency()
	}
	clean, faulted := run(false), run(true)
	if clean == 0 || faulted <= clean {
		t.Fatalf("faulted latency %v not above clean latency %v", faulted, clean)
	}
}

func TestHooksRun(t *testing.T) {
	n := MustNew(testCfg(2, 2, true), nil)
	var seen []sim.Cycle
	n.AddHook(func(c sim.Cycle) { seen = append(seen, c) })
	n.Run(3)
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("hook cycles: %v", seen)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(Config{Width: 1, Height: 0}, nil); err == nil {
		t.Fatal("invalid mesh accepted")
	}
	bad := testCfg(2, 2, true)
	bad.Router.VCs = 3
	bad.Router.Classes = 2
	if _, err := New(bad, nil); err == nil {
		t.Fatal("invalid router config accepted")
	}
}

// TestLinkFlitsAndHeatmap follows one packet through the obs link
// counters the heatmap reads, and pins the heatmap it draws before and
// after two routers stop working: one that lost its pipeline to internal
// faults and one killed with SetRouterFault.
func TestLinkFlitsAndHeatmap(t *testing.T) {
	cfg := testCfg(4, 4, true)
	cfg.Router.Obs = obs.New(0)
	n := MustNew(cfg, nil)
	// A 3-flit packet from node 0 to node 3 crosses routers 0,1,2,3 East.
	n.Inject(0, &flit.Packet{Dst: 3, Size: 3})
	if !n.Drain(200) {
		t.Fatal("packet not delivered")
	}
	link := func(id int, p topology.Port) uint64 {
		return cfg.Router.Obs.Metrics.Counter(obs.Key{Kind: obs.KLinkFlits, Router: int32(id), Port: int8(p), VC: obs.NoVC}).Value()
	}
	for _, id := range []int{0, 1, 2} {
		if got := link(id, topology.East); got != 3 {
			t.Errorf("router %d East link carried %d flits, want 3", id, got)
		}
	}
	if got := link(3, topology.Local); got != 3 {
		t.Errorf("ejection link carried %d flits, want 3", got)
	}
	const rows = " . . . .\n . . . .\n"
	if got, want := n.Heatmap(), "router load heatmap (max 3 flits)\n 9 9 9 9\n"+rows+" . . . .\n"; got != want {
		t.Errorf("heatmap:\n%swant\n%s", got, want)
	}
	n.Router(15).SetRCFault(topology.Local, 0, true)
	n.Router(15).SetRCFault(topology.Local, 1, true)
	if err := n.SetRouterFault(12, true); err != nil {
		t.Fatal(err)
	}
	if got, want := n.Heatmap(), "router load heatmap (max 3 flits)\n 9 9 9 9\n"+rows+" X . . X\n"; got != want {
		t.Errorf("heatmap with routers 12 and 15 down:\n%swant\n%s", got, want)
	}
}

// TestFunctionalCountsKilledRouters pins that a router killed with
// SetRouterFault makes the network non-functional, as a router that lost
// its pipeline to internal faults does, and that the repair undoes it.
func TestFunctionalCountsKilledRouters(t *testing.T) {
	n := MustNew(testCfg(4, 4, true), nil)
	if !n.Functional() {
		t.Fatal("fresh network not functional")
	}
	if err := n.SetRouterFault(5, true); err != nil {
		t.Fatal(err)
	}
	if n.Functional() {
		t.Error("network with a killed router reports functional")
	}
	if err := n.SetRouterFault(5, false); err != nil {
		t.Fatal(err)
	}
	if !n.Functional() {
		t.Error("repaired network not functional")
	}
}

func TestHeatmapEmptyNetwork(t *testing.T) {
	cfg := testCfg(2, 2, true)
	cfg.Router.Obs = obs.New(0)
	n := MustNew(cfg, nil)
	if got, want := n.Heatmap(), "router load heatmap (max 0 flits)\n . .\n . .\n"; got != want {
		t.Errorf("idle heatmap:\n%swant\n%s", got, want)
	}
}

// TestHeatmapNeedsObserver pins that Heatmap on a network without an
// observer registry panics with a message that names the fix.
func TestHeatmapNeedsObserver(t *testing.T) {
	n := MustNew(testCfg(2, 2, true), nil)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "router.Config.Obs") {
			t.Errorf("Heatmap without an observer: recovered %v, want a panic naming router.Config.Obs", r)
		}
	}()
	n.Heatmap()
}

func TestCreditConservationInvariant(t *testing.T) {
	// The global credit-conservation equation must hold at every cycle
	// boundary of a busy, faulted simulation.
	src := traffic.NewSynthetic(16, 0.08, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 17)
	n := MustNew(testCfg(4, 4, true), src)
	n.Router(5).SetSA1Fault(topology.East, true)
	n.Router(10).SetXBFault(topology.West, true)
	n.Router(6).SetVA1Fault(topology.North, 0, true)
	for i := 0; i < 3000; i++ {
		n.Step()
		if i%7 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Ejected() == 0 {
		t.Fatal("no traffic flowed during invariant check")
	}
}

// TestCreditConservationCoversLocalLinks plants a leak on each direction
// of a node's local link and requires CheckInvariants to name it: a credit
// the NI lost, and an ejection credit latched twice.
func TestCreditConservationCoversLocalLinks(t *testing.T) {
	for name, leak := range map[string]func(n *Network){
		"ni5 -> r5.L": func(n *Network) { n.nis[5].credits[1]-- },
		"r5.L -> ni5": func(n *Network) { n.routers[5].AcceptCredit(core.CreditIn{Out: localPort, VC: 1}) },
	} {
		src := traffic.NewSynthetic(16, 0.08, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 17)
		n := MustNew(testCfg(4, 4, true), src)
		n.Run(20)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("before the leak: %v", err)
		}
		leak(n)
		want := "local link " + name + " vc1"
		if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("leak on %s: CheckInvariants = %v, want an error naming %q", name, err, want)
		}
	}
}

func TestOneRowMesh(t *testing.T) {
	// Degenerate 8×1 mesh: only East/West links exist; routing and flow
	// control must still work end to end.
	n := MustNew(testCfg(8, 1, true), nil)
	p1 := &flit.Packet{Dst: 7, Size: 3}
	p2 := &flit.Packet{Dst: 0, Size: 3}
	n.Inject(0, p1)
	n.Inject(7, p2)
	if !n.Drain(500) {
		t.Fatal("one-row mesh did not deliver")
	}
	if n.Stats().Ejected() != 2 {
		t.Fatalf("ejected %d", n.Stats().Ejected())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAsymmetricMeshTraffic(t *testing.T) {
	src := traffic.NewSynthetic(8, 0.04, traffic.Uniform(8), traffic.Bimodal(1, 5, 0.5), 21)
	src.StopAt(2000)
	n := MustNew(testCfg(4, 2, true), src)
	n.Run(2000)
	if !n.Drain(10000) {
		t.Fatalf("4x2 mesh did not drain: %d in flight", n.Stats().InFlight())
	}
	if n.Stats().Created() != n.Stats().Ejected() {
		t.Fatalf("loss on asymmetric mesh: %d vs %d", n.Stats().Created(), n.Stats().Ejected())
	}
}

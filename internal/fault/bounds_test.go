package fault

import (
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/reliability"
	"gonoc/internal/topology"
)

// maxTolerableSet builds the Section VIII-E worst-case-tolerable fault
// set for the 5-port, 4-VC router: 5 primary RC units, 3 VA1 arbiter
// sets per port (15), 5 SA1 arbiters, and the two simultaneously
// tolerable crossbar muxes (M2 and M4 in the paper's 1-based numbering;
// 1 and 3 zero-based) — 27 faults in total.
func maxTolerableSet() []Site {
	var set []Site
	for p := 0; p < 5; p++ {
		port := topology.Port(p)
		set = append(set, Site{Kind: RCPrimary, Port: port})
		for v := 0; v < 3; v++ {
			set = append(set, Site{Kind: VA1ArbSet, Port: port, Index: v})
		}
		set = append(set, Site{Kind: SA1Arb, Port: port})
	}
	set = append(set,
		Site{Kind: XBMux, Port: topology.Port(1)},
		Site{Kind: XBMux, Port: topology.Port(3)},
	)
	return set
}

func TestMaxToleratedSetIsFunctional(t *testing.T) {
	// The paper's maximum: 27 simultaneous faults, every mechanism
	// engaged, router still functional.
	set := maxTolerableSet()
	if len(set) != 27 {
		t.Fatalf("set has %d faults, want 27", len(set))
	}
	r := core.MustNew(4, topology.NewMesh(3, 3), protCfg())
	for _, s := range set {
		Apply(r, s, true)
	}
	if !r.Functional() {
		t.Fatal("router failed under the 27-fault maximum-tolerable set")
	}
}

func TestTwentyEighthFaultKills(t *testing.T) {
	// On top of the maximum-tolerable set, the paper says "an additional
	// fault in any of the pipeline stages or correction circuitry would
	// result in failure". For each stage's natural next fault, verify it.
	killers := []Site{
		{Kind: RCDuplicate, Port: topology.North},        // RC: second copy of a dead-primary port
		{Kind: VA1ArbSet, Port: topology.East, Index: 3}, // VA: the port's last arbiter set
		{Kind: SA1Bypass, Port: topology.South},          // SA: bypass of a dead-arbiter port
		{Kind: XBMux, Port: topology.Port(0)},            // XB: a third mux
		{Kind: XBSecondary, Port: topology.Port(1)},      // XB: secondary of a detoured output
	}
	for _, k := range killers {
		r := core.MustNew(4, topology.NewMesh(3, 3), protCfg())
		for _, s := range maxTolerableSet() {
			Apply(r, s, true)
		}
		Apply(r, k, true)
		if r.Functional() {
			t.Errorf("router survived 28th fault %v", k)
		}
	}
}

// TestCampaignNeverExceedsTheory runs many random orderings over the
// paper universe and confirms no trial ever survives past the analytical
// maximum of 27 tolerated faults.
func TestCampaignNeverExceedsTheory(t *testing.T) {
	res := FaultsToFailure(protCfg(), 2000, 77, UniversePaper)
	_, maxFail := reliability.FaultBounds(5, 4)
	if res.Max > maxFail {
		t.Fatalf("a trial needed %d faults to fail; theory caps at %d", res.Max, maxFail)
	}
	if res.Min < 2 {
		t.Fatalf("a trial failed after %d fault(s); minimum is 2", res.Min)
	}
}

package fault

import (
	"math"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

func protCfg() router.Config {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	cfg.Classes = 1
	return cfg
}

func TestSiteEnumeration(t *testing.T) {
	prot := Sites(protCfg())
	// Per port: RC×2 + VA1×4 + VA2×4 + SA1 + bypass + SA2 + XB + XBsec = 15.
	if len(prot) != 75 {
		t.Fatalf("protected sites = %d, want 75", len(prot))
	}
	base := protCfg()
	base.FaultTolerant = false
	if n := len(Sites(base)); n != 60 {
		t.Fatalf("baseline sites = %d, want 60", n)
	}
	// No duplicates.
	seen := map[Site]bool{}
	for _, s := range prot {
		if seen[s] {
			t.Fatalf("duplicate site %v", s)
		}
		seen[s] = true
	}
}

// TestSiteCheck pins Check to Sites: every enumerated site of a
// configuration passes, and exactly the sites another configuration lacks
// (or no router has) are refused — on a live router those used to panic
// inside Apply.
func TestSiteCheck(t *testing.T) {
	prot, base := protCfg(), protCfg()
	base.FaultTolerant = false
	for _, cfg := range []router.Config{prot, base} {
		for _, s := range Sites(cfg) {
			if err := s.Check(cfg); err != nil {
				t.Errorf("FaultTolerant=%v: enumerated site %v refused: %v", cfg.FaultTolerant, s, err)
			}
		}
	}
	for _, s := range Sites(prot) {
		if err := s.Check(base); (err != nil) != s.Kind.Correction() {
			t.Errorf("baseline Check(%v) = %v, want an error exactly for correction kinds", s, err)
		}
	}
	for _, s := range []Site{
		{Kind: RCPrimary, Port: 5}, {Kind: XBMux, Port: -1},
		{Kind: VA1ArbSet, Port: topology.North, Index: 4}, {Kind: VA2Arb, Port: topology.North, Index: -1},
		{Kind: numKinds},
	} {
		if err := s.Check(prot); err == nil {
			t.Errorf("Check accepted %+v", s)
		}
	}
	n := noc.MustNew(noc.Config{Width: 2, Height: 2, Router: base}, nil)
	if err := ApplyNetwork(n, 0, Site{Kind: XBSecondary, Port: topology.East}, true); err == nil {
		t.Error("ApplyNetwork injected a secondary-path fault into a baseline router")
	}
}

func TestKindStageAndCorrection(t *testing.T) {
	cases := map[Kind]core.StageID{
		RCPrimary: core.StageRC, RCDuplicate: core.StageRC,
		VA1ArbSet: core.StageVA, VA2Arb: core.StageVA,
		SA1Arb: core.StageSA, SA1Bypass: core.StageSA,
		SA2Arb: core.StageXB, XBMux: core.StageXB, XBSecondary: core.StageXB,
	}
	for k, st := range cases {
		if k.Stage() != st {
			t.Errorf("%v.Stage() = %v, want %v", k, k.Stage(), st)
		}
	}
	for _, k := range []Kind{RCDuplicate, SA1Bypass, XBSecondary} {
		if !k.Correction() {
			t.Errorf("%v should be correction circuitry", k)
		}
	}
	for _, k := range []Kind{RCPrimary, VA1ArbSet, VA2Arb, SA1Arb, SA2Arb, XBMux} {
		if k.Correction() {
			t.Errorf("%v should not be correction circuitry", k)
		}
	}
}

func TestApplyAndRepairEverySite(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	r := core.MustNew(4, mesh, protCfg())
	for _, s := range Sites(protCfg()) {
		Apply(r, s, true)
		Apply(r, s, false)
	}
	if !r.Functional() {
		t.Fatal("router not functional after repairing every site")
	}
}

func TestSingleFaultAlwaysTolerated(t *testing.T) {
	// The protected router tolerates any single fault (Section V).
	mesh := topology.NewMesh(3, 3)
	for _, s := range Sites(protCfg()) {
		r := core.MustNew(4, mesh, protCfg())
		Apply(r, s, true)
		if !r.Functional() {
			t.Errorf("single fault at %v killed the protected router", s)
		}
	}
}

func TestBaselineSingleFaultAlwaysFatal(t *testing.T) {
	cfg := protCfg()
	cfg.FaultTolerant = false
	mesh := topology.NewMesh(3, 3)
	for _, s := range Sites(cfg) {
		r := core.MustNew(4, mesh, cfg)
		Apply(r, s, true)
		if r.Functional() {
			t.Errorf("baseline survived fault at %v", s)
		}
	}
}

func TestTheoreticalBounds(t *testing.T) {
	min, max := TheoreticalBounds(5, 4)
	if min != 2 || max != 28 {
		t.Fatalf("bounds (%d, %d), want (2, 28)", min, max)
	}
	min2, max2 := TheoreticalBounds(5, 2)
	if min2 != 2 || max2 != 18 {
		t.Fatalf("2-VC bounds (%d, %d), want (2, 18)", min2, max2)
	}
}

func TestFaultsToFailureCampaign(t *testing.T) {
	res := FaultsToFailure(protCfg(), 300, 42, UniversePaper)
	if res.Trials != 300 {
		t.Fatalf("trials = %d", res.Trials)
	}
	// Every trial must fall within the theoretical bounds.
	if res.Min < 2 || res.Max > 28 {
		t.Fatalf("observed bounds (%d, %d) outside theory (2, 28)", res.Min, res.Max)
	}
	// Uniformly ordered faults typically kill the router well before the
	// theoretical max; the mean must sit strictly inside the bounds.
	if res.Mean <= 2 || res.Mean >= 28 {
		t.Fatalf("mean %v outside (2, 28)", res.Mean)
	}
	// The seeded result is pinned to what this package's own trial loop
	// produced before it was folded into ftrouters': same rng.Perm order,
	// same statistics.
	if math.Abs(res.StdDev-4.862522207889872) > 1e-9 {
		t.Errorf("StdDev = %v, want 4.862522207889872", res.StdDev)
	}
	res.StdDev = 0
	want := CampaignResult{Design: "Proposed Router", Trials: 300, Mean: 10.243333333333334,
		Min: 2, Max: 25, P50: 9, P95: 20, P99: 23}
	if res != want {
		t.Errorf("seeded campaign moved:\n got %+v\nwant %+v", res, want)
	}
}

func TestCampaignBaselineAlwaysOne(t *testing.T) {
	cfg := protCfg()
	cfg.FaultTolerant = false
	res := FaultsToFailure(cfg, 100, 7, UniverseAll)
	if res.Min != 1 || res.Max != 1 || res.Mean != 1 {
		t.Fatalf("baseline campaign = %+v, want all 1", res)
	}
}

func TestCampaignFullUniverseToleratesMore(t *testing.T) {
	// The full site universe includes VA2/SA2 arbiters, which the router
	// tolerates beyond the paper's conservative 28-fault ceiling.
	full := FaultsToFailure(protCfg(), 300, 42, UniverseAll)
	paper := FaultsToFailure(protCfg(), 300, 42, UniversePaper)
	if full.Mean <= paper.Mean {
		t.Fatalf("full-universe mean %v not above paper-universe mean %v", full.Mean, paper.Mean)
	}
	if full.Min < 2 {
		t.Fatalf("full-universe min %d below 2", full.Min)
	}
}

func TestSitesInUniverse(t *testing.T) {
	all := SitesIn(protCfg(), UniverseAll)
	paper := SitesIn(protCfg(), UniversePaper)
	// 75 total minus 20 VA2 arbiters and 5 SA2 arbiters.
	if len(all) != 75 || len(paper) != 50 {
		t.Fatalf("universe sizes all=%d paper=%d, want 75/50", len(all), len(paper))
	}
	for _, s := range paper {
		if s.Kind == VA2Arb || s.Kind == SA2Arb {
			t.Fatalf("paper universe contains %v", s)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := FaultsToFailure(protCfg(), 100, 5, UniverseAll)
	b := FaultsToFailure(protCfg(), 100, 5, UniverseAll)
	if a != b {
		t.Fatalf("campaign not deterministic: %+v vs %+v", a, b)
	}
}

func TestInjectorSafeOnly(t *testing.T) {
	cfg := noc.Config{Width: 4, Height: 4, Router: protCfg(), Warmup: 0}
	src := traffic.NewSynthetic(16, 0.02, traffic.Uniform(16), traffic.FixedSize(1), 3)
	n := noc.MustNew(cfg, src)
	inj := NewInjector(n, 200, 11, true)
	n.Run(8000)
	if len(inj.Injected()) == 0 {
		t.Fatal("no faults injected")
	}
	if !n.Functional() {
		t.Fatal("SafeOnly injector broke a router")
	}
	// Traffic still flows.
	if n.Stats().Ejected() == 0 {
		t.Fatal("no packets delivered under injection")
	}
	// Injections spread across stages.
	stages := map[core.StageID]int{}
	for _, e := range inj.Injected() {
		stages[e.Site.Kind.Stage()]++
	}
	if len(stages) < 3 {
		t.Errorf("injections concentrated: %v", stages)
	}
}

func TestInjectorUnsafeCanBreakRouters(t *testing.T) {
	cfg := noc.Config{Width: 4, Height: 4, Router: protCfg(), Warmup: 0}
	n := noc.MustNew(cfg, nil)
	NewInjector(n, 50, 11, false)
	n.Run(20000)
	if n.Functional() {
		t.Fatal("unsafe high-rate injection never broke any router")
	}
}

func TestInjectorZeroMeanNeverFires(t *testing.T) {
	cfg := noc.Config{Width: 2, Height: 2, Router: protCfg(), Warmup: 0}
	n := noc.MustNew(cfg, nil)
	inj := NewInjector(n, 0, 1, true)
	n.Run(1000)
	if len(inj.Injected()) != 0 {
		t.Fatal("injector with zero mean fired")
	}
}

func TestInjectorNeverRepairsForeignFaults(t *testing.T) {
	// Regression: a safe-only injector used to roll back its injection by
	// repairing the site even when the fault pre-existed (set manually or
	// by another injector), silently healing the router.
	cfg := noc.Config{Width: 2, Height: 2, Router: protCfg(), Warmup: 0}
	n := noc.MustNew(cfg, nil)
	victim := n.Router(0)
	victim.SetRCFault(topology.West, 0, true)
	victim.SetRCFault(topology.West, 1, true) // manually dead port
	if victim.Functional() {
		t.Fatal("setup: router should be non-functional")
	}
	NewInjector(n, 3, 5, true) // aggressive safe-only injector
	n.Run(2000)
	if victim.Functional() {
		t.Fatal("injector repaired a manually injected fault")
	}
	if !victim.RCFault(topology.West, 0) || !victim.RCFault(topology.West, 1) {
		t.Fatal("manual RC faults were cleared")
	}
}

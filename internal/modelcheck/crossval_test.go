package modelcheck

import (
	"math"
	"testing"

	"gonoc/internal/fault"
	"gonoc/internal/reliability"
	"gonoc/internal/router"
)

// TestFunctionalSubsetsMatchRouter checks the combinatorial group model
// against the real failure predicate by direct enumeration: for every
// single- and two-site fault subset of the paper universe, applying the
// subset to a live router must agree with the model's functional-subset
// counts. This pins the closed-form F_k to the implementation, not to
// the derivation's assumptions.
func TestFunctionalSubsetsMatchRouter(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	sites := fault.SitesIn(cfg, fault.UniversePaper)
	f, n := functionalSubsets(cfg)
	if n != len(sites) {
		t.Fatalf("model counts %d sites, universe has %d", n, len(sites))
	}
	if n != 50 {
		t.Errorf("paper universe of the 5-port 4-VC router has %d sites, want 50", n)
	}

	count := func(k int) float64 {
		// Enumerate all k-subsets (k <= 2) against a live router.
		functional := 0.0
		switch k {
		case 1:
			for i := range sites {
				r := freshRouter(cfg)
				fault.Apply(r, sites[i], true)
				if r.Functional() {
					functional++
				}
			}
		case 2:
			for i := range sites {
				for j := i + 1; j < len(sites); j++ {
					r := freshRouter(cfg)
					fault.Apply(r, sites[i], true)
					fault.Apply(r, sites[j], true)
					if r.Functional() {
						functional++
					}
				}
			}
		}
		return functional
	}
	if got, want := count(1), f[1]; got != want {
		t.Errorf("functional 1-subsets: router says %.0f, model says %.0f", got, want)
	}
	if got, want := count(2), f[2]; got != want {
		t.Errorf("functional 2-subsets: router says %.0f, model says %.0f", got, want)
	}
}

// TestExactMeanWithinTheory checks the exact expectation against the
// paper's analytical extremes and the baseline's trivial value.
func TestExactMeanWithinTheory(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	exact := ExactMeanFaultsToFailure(cfg)
	lo, hi := reliability.FaultBounds(cfg.Ports, cfg.VCs)
	if exact < float64(lo) || exact > float64(hi) {
		t.Errorf("exact mean %.3f outside theoretical bounds [%d, %d]", exact, lo, hi)
	}
	// The SPF analysis (Section VIII-E) estimates the same quantity by
	// per-stage accounting; the exact value must land in its ballpark
	// (same order, below the optimistic per-stage mean).
	spf := reliability.AnalyzeSPF(cfg.Ports, cfg.VCs, 0.31)
	if exact > spf.MeanFaults || exact < spf.MeanFaults/4 {
		t.Errorf("exact mean %.3f implausible against the paper's per-stage mean %.1f", exact, spf.MeanFaults)
	}

	base := router.DefaultConfig()
	base.FaultTolerant = false
	if got := ExactMeanFaultsToFailure(base); got != 1 {
		t.Errorf("baseline exact mean %.3f, want exactly 1 (first fault kills it)", got)
	}
	t.Logf("exact E[faults to failure]: protected %.4f, bounds [%d, %d], paper per-stage mean %.1f",
		exact, lo, hi, spf.MeanFaults)
}

// TestCrossValidateCampaign is the reliability cross-check the issue
// tier exists for: the Monte-Carlo campaign of internal/fault must
// agree with the independent combinatorial recomputation within its
// confidence interval, and both must respect the paper's bounds.
func TestCrossValidateCampaign(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	cc := CrossValidate(cfg, trials, 12345, 4)
	if !cc.OK {
		t.Fatalf("cross-validation failed: %s", cc)
	}
	if cc.Campaign.Min < cc.BoundsMin || cc.Campaign.Max > cc.BoundsMax {
		t.Errorf("campaign extremes [%d, %d] escape theoretical bounds [%d, %d]",
			cc.Campaign.Min, cc.Campaign.Max, cc.BoundsMin, cc.BoundsMax)
	}
	t.Logf("%s", cc)

	base := router.DefaultConfig()
	base.FaultTolerant = false
	bc := CrossValidate(base, 200, 99, 4)
	if bc.Campaign.Mean != 1 || bc.ExactMean != 1 {
		t.Errorf("baseline: campaign %.3f, exact %.3f, want both exactly 1", bc.Campaign.Mean, bc.ExactMean)
	}
}

// TestMTTFEqualRateBridge checks the analytic equal-rate MTTF against
// direct Monte-Carlo sampling of exponential site failures through the
// live router, within four standard errors.
func TestMTTFEqualRateBridge(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	const lambda = 1e-6 // per-site failure rate, arbitrary units
	analytic := MTTFEqualRate(cfg, lambda)
	mean, stddev := SampleMTTFEqualRate(cfg, lambda, trials, 777)
	se := stddev / math.Sqrt(float64(trials))
	if diff := math.Abs(mean - analytic); diff > 4*se {
		t.Errorf("sampled MTTF %.4g is %.4g from analytic %.4g (4 s.e. = %.4g)", mean, diff, analytic, 4*se)
	}

	base := router.DefaultConfig()
	base.FaultTolerant = false
	baseMTTF := MTTFEqualRate(base, lambda)
	// Under equal rates the baseline dies at the first of its 35 site
	// failures: E = 1/(35*lambda).
	if want := 1 / (35 * lambda); math.Abs(baseMTTF-want)/want > 1e-9 {
		t.Errorf("baseline equal-rate MTTF %.6g, want %.6g", baseMTTF, want)
	}
	if analytic <= baseMTTF {
		t.Errorf("protection does not improve equal-rate MTTF: protected %.4g <= baseline %.4g", analytic, baseMTTF)
	}
	t.Logf("equal-rate MTTF: protected %.4g, baseline %.4g (x%.2f), sampled %.4g +/- %.2g",
		analytic, baseMTTF, analytic/baseMTTF, mean, se)
}

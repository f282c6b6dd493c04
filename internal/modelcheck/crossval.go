package modelcheck

import (
	"fmt"
	"math"

	"gonoc/internal/core"
	"gonoc/internal/fault"
	"gonoc/internal/reliability"
	"gonoc/internal/rng"
	"gonoc/internal/router"
	"gonoc/internal/topology"
)

// freshRouter builds the same standalone router the campaign uses: the
// centre node of a 3x3 mesh, so every port is populated.
func freshRouter(cfg router.Config) *core.Router {
	return core.MustNew(4, topology.NewMesh(3, 3), cfg)
}

// This file cross-validates the reliability numbers: the Monte-Carlo
// faults-to-failure campaign of internal/fault is checked against an
// exact combinatorial recomputation of the same expectation, derived
// independently from the router's Functional() failure predicate, and
// the campaign mean must fall inside the paper's theoretical bounds.
//
// The exact value uses the standard prefix identity for a uniformly
// random permutation of the n fault sites: with T the index of the
// first fault that kills the router and F_k the number of k-site
// subsets that leave it functional,
//
//	E[T] = sum_{k>=0} P(T > k) = sum_{k>=0} F_k / C(n, k).
//
// F_k factors over independent site groups. Under the paper's site
// universe (UniversePaper: no VA stage-2 and no SA stage-2 sites), the
// protected router fails iff some per-port group is wholly faulty —
// both RC copies, all VCs' VA1 arbiter sets, or the SA1 arbiter plus
// its bypass — or the crossbar globally loses an output (its mux dead
// and its secondary path dead, the latter via the demux leg or the
// neighbouring mux). Per-port groups contribute closed-form
// functional-subset polynomials; the crossbar's 2*ports sites are
// coupled through SecondaryOf, so its polynomial is enumerated over
// all 2^(2*ports) subsets. The polynomials convolve into F_k.

// groupPoly is f[j] = number of j-subsets of a group's sites that
// leave the group functional.
type groupPoly []float64

// allButFullPoly is the polynomial of a group of n sites that fails
// only when every site is faulty: f(j) = C(n, j) for j < n, 0 at n.
func allButFullPoly(n int) groupPoly {
	f := make(groupPoly, n+1)
	for j := 0; j < n; j++ {
		f[j] = binom(n, j)
	}
	return f
}

// xbPoly enumerates the protected crossbar's 2*ports coupled sites:
// bit i < ports is output i's primary mux, bit ports+i its secondary
// demux leg. The crossbar fails when some output loses both paths.
func xbPoly(ports int) groupPoly {
	f := make(groupPoly, 2*ports+1)
	secondaryOf := func(out int) int {
		// Mirrors crossbar.Protected.SecondaryOf: output 0 borrows
		// mux 1, output 1 borrows the last mux, output k borrows k-1.
		switch out {
		case 0:
			return 1
		case 1:
			return ports - 1
		default:
			return out - 1
		}
	}
	for mask := 0; mask < 1<<(2*ports); mask++ {
		functional := true
		for out := 0; out < ports; out++ {
			muxDead := mask&(1<<out) != 0
			secDead := mask&(1<<(ports+out)) != 0 || mask&(1<<secondaryOf(out)) != 0
			if muxDead && secDead {
				functional = false
				break
			}
		}
		if functional {
			f[popcount(mask)]++
		}
	}
	return f
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// convolve returns h with h[k] = sum_j a[j]*b[k-j]: the functional
// k-subset counts of the union of two independent groups.
func convolve(a, b groupPoly) groupPoly {
	h := make(groupPoly, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			h[i+j] += av * bv
		}
	}
	return h
}

// functionalSubsets returns F, with F[k] the number of k-subsets of
// the UniversePaper fault sites that leave the router functional, and
// the total site count n.
func functionalSubsets(cfg router.Config) (groupPoly, int) {
	if !cfg.FaultTolerant {
		// The baseline fails on its first fault anywhere: only the
		// empty set is functional.
		n := len(fault.SitesIn(cfg, fault.UniversePaper))
		return groupPoly{1}, n
	}
	f := groupPoly{1}
	for p := 0; p < cfg.Ports; p++ {
		f = convolve(f, allButFullPoly(2))       // RC primary + duplicate
		f = convolve(f, allButFullPoly(cfg.VCs)) // VA1 arbiter sets
		f = convolve(f, allButFullPoly(2))       // SA1 arbiter + bypass
	}
	f = convolve(f, xbPoly(cfg.Ports))
	n := 0
	for p := 0; p < cfg.Ports; p++ {
		n += 2 + cfg.VCs + 2 + 2
	}
	return f, n
}

// ExactMeanFaultsToFailure computes E[faults to failure] for cfg under
// the paper's site universe, exactly, from the same failure predicate
// the campaign samples. For the paper's protected 5-port 4-VC router
// the universe has 50 sites.
func ExactMeanFaultsToFailure(cfg router.Config) float64 {
	f, n := functionalSubsets(cfg)
	e := 0.0
	for k, fk := range f {
		if fk == 0 {
			continue
		}
		e += fk / binom(n, k)
	}
	return e
}

// MTTFEqualRate is the analytic mean time to router failure when every
// fault site fails independently at rate lambda (failures per hour):
// after k surviving faults the next site fails after a mean gap of
// 1/((n-k)*lambda), so
//
//	E[MTTF] = sum_k (F_k / C(n,k)) * 1 / ((n-k)*lambda).
//
// The equal-rate model is the bridge between the order-statistics view
// of the campaign (which ignores time) and the FIT-rate MTTF analysis
// of internal/reliability; SampleMTTFEqualRate checks it by direct
// simulation.
func MTTFEqualRate(cfg router.Config, lambda float64) float64 {
	f, n := functionalSubsets(cfg)
	e := 0.0
	for k, fk := range f {
		if fk == 0 || k >= n {
			continue
		}
		e += (fk / binom(n, k)) / (float64(n-k) * lambda)
	}
	return e
}

// SampleMTTFEqualRate estimates the same quantity by Monte Carlo: each
// trial draws an exponential failure time per site, applies faults in
// time order to a fresh router, and records the time Functional()
// first fails. Returns the sample mean and standard deviation.
func SampleMTTFEqualRate(cfg router.Config, lambda float64, trials int, seed uint64) (mean, stddev float64) {
	sites := fault.SitesIn(cfg, fault.UniversePaper)
	r := rng.New(seed)
	var sum, sumSq float64
	times := make([]float64, len(sites))
	order := make([]int, len(sites))
	for t := 0; t < trials; t++ {
		for i := range times {
			times[i] = r.Exp(1 / lambda) // Exp takes the mean, 1/rate
			order[i] = i
		}
		// Insertion sort by failure time: site counts are tiny.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && times[order[j]] < times[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		rt := freshRouter(cfg)
		died := times[order[len(order)-1]]
		for _, idx := range order {
			fault.Apply(rt, sites[idx], true)
			if !rt.Functional() {
				died = times[idx]
				break
			}
		}
		sum += died
		sumSq += died * died
	}
	mean = sum / float64(trials)
	if v := sumSq/float64(trials) - mean*mean; v > 0 {
		stddev = math.Sqrt(v)
	}
	return mean, stddev
}

// CrossCheck is the outcome of CrossValidate.
type CrossCheck struct {
	// ExactMean is the combinatorial E[faults to failure].
	ExactMean float64
	// Campaign is the simulated campaign under the same universe.
	Campaign fault.CampaignResult
	// CI is the half-width of the campaign mean's confidence interval
	// (z standard errors).
	CI float64
	// BoundsMin and BoundsMax are the paper's theoretical extremes.
	BoundsMin, BoundsMax int
	// OK reports that the campaign mean lies within CI of the exact
	// value and inside the theoretical bounds.
	OK bool
	// Detail explains a failed check.
	Detail string
}

// CrossValidate runs the faults-to-failure campaign for the protected
// router and checks its mean against the exact expectation (within z
// standard errors) and the paper's theoretical bounds. This is the
// model-checking tier's reliability cross-check: two independent
// derivations — sampled permutations through the live router versus
// closed-form counting over the failure predicate — must agree.
func CrossValidate(cfg router.Config, trials int, seed uint64, z float64) CrossCheck {
	exact := ExactMeanFaultsToFailure(cfg)
	camp := fault.FaultsToFailure(cfg, trials, seed, fault.UniversePaper)
	lo, hi := reliability.FaultBounds(cfg.Ports, cfg.VCs)
	cc := CrossCheck{
		ExactMean: exact,
		Campaign:  camp,
		CI:        z * camp.StdDev / math.Sqrt(float64(camp.Trials)),
		BoundsMin: lo,
		BoundsMax: hi,
		OK:        true,
	}
	if diff := math.Abs(camp.Mean - exact); diff > cc.CI {
		cc.OK = false
		cc.Detail = fmt.Sprintf("campaign mean %.3f is %.3f from exact %.3f, outside the %.1f-sigma interval %.3f",
			camp.Mean, diff, exact, z, cc.CI)
		return cc
	}
	if cfg.FaultTolerant && (camp.Mean < float64(lo) || camp.Mean > float64(hi) ||
		exact < float64(lo) || exact > float64(hi)) {
		cc.OK = false
		cc.Detail = fmt.Sprintf("mean outside theoretical bounds [%d, %d]: campaign %.3f, exact %.3f",
			lo, hi, camp.Mean, exact)
	}
	return cc
}

// String implements fmt.Stringer.
func (c CrossCheck) String() string {
	status := "OK"
	if !c.OK {
		status = "FAIL: " + c.Detail
	}
	return fmt.Sprintf("faults-to-failure: exact %.3f, campaign %.3f +/- %.3f (%d trials), bounds [%d, %d] — %s",
		c.ExactMean, c.Campaign.Mean, c.CI, c.Campaign.Trials, c.BoundsMin, c.BoundsMax, status)
}

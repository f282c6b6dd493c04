package reliability

import (
	"fmt"

	"gonoc/internal/core"
)

// This file implements Section VIII: the Silicon Protection Factor
// analysis. SPF is the mean number of faults required to cause router
// failure divided by the area overhead factor of the correction circuitry;
// higher is better.

// StageFaultBounds gives, for one pipeline stage, the paper's theoretical
// fault-tolerance bounds: the maximum number of faults the stage's
// mechanism can absorb and the minimum number that defeats it.
type StageFaultBounds struct {
	Stage core.StageID
	// MaxTolerated is the largest fault count the stage can survive.
	MaxTolerated int
	// MinToFail is the smallest fault count that can kill the stage.
	MinToFail int
}

// StageBounds returns the Section VIII per-stage analysis for a router
// with the given radix and VC count:
//
//	RC: one duplicate per port → tolerates P, fails with 2 (both copies
//	    of one port).
//	VA: each VC can borrow from V−1 siblings → tolerates (V−1)·P, fails
//	    with V (every arbiter set of one port).
//	SA: one bypass per port → tolerates P, fails with 2 (arbiter plus
//	    bypass of one port).
//	XB: exactly 2 simultaneous mux faults are tolerable (e.g. M2 and M4
//	    in Figure 6), and 2 faults on one output (primary + secondary)
//	    cause failure.
func StageBounds(ports, vcs int) []StageFaultBounds {
	return []StageFaultBounds{
		{Stage: core.StageRC, MaxTolerated: ports, MinToFail: 2},
		{Stage: core.StageVA, MaxTolerated: (vcs - 1) * ports, MinToFail: vcs},
		{Stage: core.StageSA, MaxTolerated: ports, MinToFail: 2},
		{Stage: core.StageXB, MaxTolerated: 2, MinToFail: 2},
	}
}

// SPFResult is a complete SPF analysis of one router design.
type SPFResult struct {
	// Design names the analysed router.
	Design string
	// AreaOverhead is the fractional area cost of the correction
	// circuitry (0.31 for the proposed router).
	AreaOverhead float64
	// MinToFail is the smallest fault count that can cause failure.
	MinToFail int
	// MaxToFail is the fault count guaranteed to cause failure: one more
	// than the total tolerable faults.
	MaxToFail int
	// MeanFaults is the paper's estimator: the average of MinToFail and
	// MaxToFail.
	MeanFaults float64
	// SPF is MeanFaults / (1 + AreaOverhead).
	SPF float64
}

// String implements fmt.Stringer.
func (r SPFResult) String() string {
	return fmt.Sprintf("%s: area +%.0f%%, faults to failure %.2f, SPF %.2f",
		r.Design, r.AreaOverhead*100, r.MeanFaults, r.SPF)
}

// FaultBounds returns the protected router's (min, max) faults to
// failure: the smallest fault count that defeats any one stage, and one
// more than the faults all stages tolerate together. For the paper's
// 5-port, 4-VC router: (2, 28).
func FaultBounds(ports, vcs int) (min, max int) {
	bounds := StageBounds(ports, vcs)
	min = bounds[0].MinToFail
	for _, b := range bounds {
		if b.MinToFail < min {
			min = b.MinToFail
		}
		max += b.MaxTolerated
	}
	return min, max + 1
}

// AnalyzeSPF performs the Section VIII-E calculation for the proposed
// router: the mean of FaultBounds' floor and ceiling, divided by the
// area factor. For the paper's 5-port, 4-VC router at 31% overhead this
// yields mean 15 and SPF ≈ 11.4; with 2 VCs the mean drops to 10 (SPF ≈
// 7).
func AnalyzeSPF(ports, vcs int, areaOverhead float64) SPFResult {
	minToFail, maxToFail := FaultBounds(ports, vcs)
	mean := float64(minToFail+maxToFail) / 2
	return SPFResult{
		Design:       "Proposed Router",
		AreaOverhead: areaOverhead,
		MinToFail:    minToFail,
		MaxToFail:    maxToFail,
		MeanFaults:   mean,
		SPF:          mean / (1 + areaOverhead),
	}
}

// NewSPFResult builds an SPFResult from externally supplied numbers (used
// for the Table III comparison entries, whose fault counts come from the
// cited papers' own experiments).
func NewSPFResult(design string, areaOverhead, meanFaults float64) SPFResult {
	return SPFResult{
		Design:       design,
		AreaOverhead: areaOverhead,
		MeanFaults:   meanFaults,
		SPF:          meanFaults / (1 + areaOverhead),
	}
}

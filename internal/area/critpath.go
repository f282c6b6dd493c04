package area

import (
	"math"

	"gonoc/internal/core"
	"gonoc/internal/reliability"
)

// CritPath is the Section VI-B critical-path analysis: per-stage delays
// of the baseline pipeline and the multiplicative impact of the
// correction circuitry, obtained in the paper by sweeping synthesis clock
// targets to the zero-slack point.
type CritPath struct {
	// BaselinePs is each stage's critical path in picoseconds at 45 nm.
	BaselinePs reliability.PerStage
	// Factor is the protected/baseline delay ratio per stage. The paper
	// reports ≈1.0 (RC, spatial redundancy off the critical path), 1.20
	// (VA, the borrow scan and R2/VF/ID muxing), 1.10 (SA, the bypass
	// 2:1 mux) and 1.25 (XB, the series demux + Pk mux).
	Factor reliability.PerStage
}

// DefaultCritPath returns the 45 nm-calibrated model.
func DefaultCritPath() CritPath {
	return CritPath{
		BaselinePs: reliability.PerStage{RC: 320, VA: 510, SA: 470, XB: 380},
		Factor:     reliability.PerStage{RC: 1.0, VA: 1.20, SA: 1.10, XB: 1.25},
	}
}

// ProtectedPs returns the protected pipeline's per-stage critical paths.
func (c CritPath) ProtectedPs() reliability.PerStage {
	return reliability.PerStage{
		RC: c.BaselinePs.RC * c.Factor.RC,
		VA: c.BaselinePs.VA * c.Factor.VA,
		SA: c.BaselinePs.SA * c.Factor.SA,
		XB: c.BaselinePs.XB * c.Factor.XB,
	}
}

// Overhead returns the fractional critical-path increase of one stage.
func (c CritPath) Overhead(id core.StageID) float64 {
	return c.Factor.Stage(id) - 1
}

// ClockPeriodPs returns the minimum clock period (the slowest stage) for
// the baseline and protected pipelines.
func (c CritPath) ClockPeriodPs() (baseline, protected float64) {
	b, p := c.BaselinePs, c.ProtectedPs()
	maxOf := func(s reliability.PerStage) float64 {
		return math.Max(math.Max(s.RC, s.VA), math.Max(s.SA, s.XB))
	}
	return maxOf(b), maxOf(p)
}

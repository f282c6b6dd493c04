// Package area models the synthesis results of Section VI: silicon area,
// power and critical path of the baseline and protected router pipelines.
//
// The paper synthesized Verilog for both pipelines with Cadence Encounter
// RTL Compiler at 45 nm and reports relative overheads: +28% area and
// +29% power for the correction circuitry, rising to +31% / +30% once the
// NoCAlert-style fault-detection layer [18] is included, and per-stage
// critical-path increases of ≈0% (RC), 20% (VA), 10% (SA) and 25% (XB).
//
// We rebuild those numbers by pricing the router's parts list, the
// reliability package's Baseline and Correction inventories (the same
// parts Tables I–II price in FIT), in gate equivalents (GE): every part
// kind is assigned an area in NAND2-equivalents, and registers a
// switching-activity weight, both calibrated to 45 nm-class values so
// that the paper's evaluation point reproduces its overheads. Because
// the model is structural (per part, per stage), it also extrapolates to
// other radices, VC counts and flit widths.
package area

import "gonoc/internal/reliability"

// Model holds the per-part-kind area/power coefficients.
type Model struct {
	// ComparatorGE is the area of a 6-bit comparator in GE (scaled
	// linearly with width for other sizes).
	ComparatorGE float64
	// ArbGEPerInput is the arbiter area per request input.
	ArbGEPerInput float64
	// MuxGEPerBitLeg is the multiplexer area per bit per (n−1) legs.
	MuxGEPerBitLeg float64
	// DemuxGEPerBitLeg is the demultiplexer area per bit per (n−1) legs.
	DemuxGEPerBitLeg float64
	// DFFGE is the area of one flip-flop bit.
	DFFGE float64
	// DFFActivity is the relative power weight of flip-flops: registers
	// draw clock-tree and internal-node power every cycle, while the
	// combinational arbitration logic only switches with traffic, so the
	// per-GE power of the DFF-heavy correction blocks is slightly higher.
	DFFActivity float64
	// DetectionAreaFrac and DetectionPowerFrac are the extra fractions of
	// baseline area/power contributed by the fault-detection layer
	// (NoCAlert-style distributed assertions, the paper's [18]).
	DetectionAreaFrac  float64
	DetectionPowerFrac float64
}

// DefaultModel returns the 45 nm-calibrated model that reproduces the
// paper's Section VI-A overheads at the 5-port, 4-VC, 32-bit design point.
func DefaultModel() *Model {
	return &Model{
		ComparatorGE:       30,
		ArbGEPerInput:      7,
		MuxGEPerBitLeg:     0.75,
		DemuxGEPerBitLeg:   0.5,
		DFFGE:              6.6,
		DFFActivity:        1.05,
		DetectionAreaFrac:  0.03,
		DetectionPowerFrac: 0.01,
	}
}

// GE returns part p's area in gate equivalents.
func (m *Model) GE(p reliability.Part) float64 {
	switch p.Kind {
	case reliability.Comparator:
		return m.ComparatorGE * float64(p.Width) / 6
	case reliability.Arbiter:
		return m.ArbGEPerInput * float64(p.Size)
	case reliability.Mux:
		return m.MuxGEPerBitLeg * float64(p.Width*(p.Size-1))
	case reliability.Demux:
		return m.DemuxGEPerBitLeg * float64(p.Width*(p.Size-1))
	}
	return m.DFFGE * float64(p.Width)
}

// AreaGE prices inv's stages in gate equivalents.
func (m *Model) AreaGE(inv reliability.Inventory) reliability.PerStage {
	return inv.Price(func(it reliability.Item) float64 { return float64(it.N) * m.GE(it.Part) })
}

// PowerGE prices inv's stages in power units: area weighted by
// switching activity, 1 for combinational parts and DFFActivity for
// registers.
func (m *Model) PowerGE(inv reliability.Inventory) reliability.PerStage {
	return inv.Price(func(it reliability.Item) float64 {
		ge := float64(it.N) * m.GE(it.Part)
		if it.Part.Kind == reliability.Register {
			ge *= m.DFFActivity
		}
		return ge
	})
}

// overhead returns the correction circuitry's price over the baseline
// pipeline's, plus detectionFrac of the baseline withDetection.
func overhead(price func(reliability.Inventory) reliability.PerStage, spec reliability.RouterSpec, detectionFrac float64, withDetection bool) float64 {
	base := price(reliability.Baseline(spec)).Total()
	corr := price(reliability.Correction(spec)).Total()
	if withDetection {
		corr += detectionFrac * base
	}
	return corr / base
}

// AreaOverhead returns the protected router's fractional area overhead
// over the baseline. With withDetection the NoCAlert-style detection
// layer is included — the configuration the paper headline (31%) uses.
func (m *Model) AreaOverhead(spec reliability.RouterSpec, withDetection bool) float64 {
	return overhead(m.AreaGE, spec, m.DetectionAreaFrac, withDetection)
}

// PowerOverhead returns the protected router's fractional average-power
// overhead (dynamic + static) over the baseline; withDetection adds the
// detection layer (paper headline: 30%).
func (m *Model) PowerOverhead(spec reliability.RouterSpec, withDetection bool) float64 {
	return overhead(m.PowerGE, spec, m.DetectionPowerFrac, withDetection)
}

package area

import (
	"math"
	"testing"

	"gonoc/internal/reliability"
)

// This file keeps the Table I/II FIT formulas and the area and power
// formulas as they were written before the parts inventory, term by
// term, as the reference the inventory's prices must equal exactly.

type refStages struct{ RC, VA, SA, XB float64 }

func (s refStages) Total() float64 { return s.RC + s.VA + s.SA + s.XB }

func (s refStages) eq(p reliability.PerStage) bool {
	return s.RC == p.RC && s.VA == p.VA && s.SA == p.SA && s.XB == p.XB && s.Total() == p.Total()
}

// The component library's FET table and the generic FET models.

const (
	refComparator6 = iota
	refArb4
	refArb5
	refArb20
	refMux4x1
	refMux5x1x32
	refMux2x1x32
	refMux2x1Ctl
	refDemux2x32
	refDemux3x32
	refDFFBit
)

var refTransistors = [...]int{
	refComparator6: 117,
	refArb4:        74,
	refArb5:        93,
	refArb20:       369,
	refMux4x1:      48,
	refMux5x1x32:   2048,
	refMux2x1x32:   512,
	refMux2x1Ctl:   16,
	refDemux2x32:   320,
	refDemux3x32:   640,
	refDFFBit:      5,
}

func refArbTransistors(n int) int {
	switch n {
	case 4:
		return refTransistors[refArb4]
	case 5:
		return refTransistors[refArb5]
	case 20:
		return refTransistors[refArb20]
	}
	return int(math.Round(18.5 * float64(n)))
}

func refMuxTransistors(n, width int) int   { return 16 * width * (n - 1) }
func refDemuxTransistors(n, width int) int { return 10 * width * (n - 1) }

func refComparatorTransistors(bits int) int {
	if bits == 6 {
		return refTransistors[refComparator6]
	}
	return int(math.Round(19.5 * float64(bits)))
}

func refDFFTransistors(bits int) int { return refTransistors[refDFFBit] * bits }

func refDestBits(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}

func refLog2ceil(n int) int {
	b := 1
	for (1 << b) < n {
		b++
	}
	return b
}

func refBaselineStageFIT(lib *reliability.FITLibrary, spec reliability.RouterSpec) refStages {
	per := lib.PerFET()
	fit := func(fets int) float64 { return float64(fets) * per }
	p, v := spec.Ports, spec.VCs
	cmp := refComparatorTransistors(refDestBits(spec.MeshNodes))
	return refStages{
		RC: fit(2 * p * cmp),
		VA: fit(p*v*p*refArbTransistors(v)) + fit(p*v*refArbTransistors(p*v)),
		SA: fit(p*p*refMuxTransistors(v, 1)) + fit(p*refArbTransistors(v)) + fit(p*refArbTransistors(p)),
		XB: fit(p * refMuxTransistors(p, spec.FlitBits)),
	}
}

func refCorrectionStageFIT(lib *reliability.FITLibrary, spec reliability.RouterSpec) refStages {
	per := lib.PerFET()
	fit := func(fets int) float64 { return float64(fets) * per }
	p, v := spec.Ports, spec.VCs
	cmp := refComparatorTransistors(refDestBits(spec.MeshNodes))
	portBits := refLog2ceil(p)
	vcBits := refLog2ceil(v)
	vaBits := p * v * (portBits + 1 + vcBits)
	saBits := p*vcBits + p*v*(portBits+1)
	return refStages{
		RC: fit(2 * p * cmp),
		VA: fit(refDFFTransistors(vaBits)),
		SA: fit(p*refMuxTransistors(2, 1)) + fit(refDFFTransistors(saBits)),
		XB: fit(p*refMuxTransistors(2, spec.FlitBits)) +
			fit((p-2)*refDemuxTransistors(2, spec.FlitBits)) +
			fit(refDemuxTransistors(3, spec.FlitBits)),
	}
}

// The area and power model.

func (m *Model) refComparator(meshNodes int) float64 {
	bits := 1
	for (1 << bits) < meshNodes {
		bits++
	}
	return m.ComparatorGE * float64(bits) / 6
}

func (m *Model) refArb(n int) float64          { return m.ArbGEPerInput * float64(n) }
func (m *Model) refMux(n, width int) float64   { return m.MuxGEPerBitLeg * float64(width*(n-1)) }
func (m *Model) refDemux(n, width int) float64 { return m.DemuxGEPerBitLeg * float64(width*(n-1)) }
func (m *Model) refDFF(bits int) float64       { return m.DFFGE * float64(bits) }

func (m *Model) refBaselineAreaGE(spec reliability.RouterSpec) refStages {
	p, v := spec.Ports, spec.VCs
	cmp := m.refComparator(spec.MeshNodes)
	return refStages{
		RC: float64(2*p) * cmp,
		VA: float64(p*v*p)*m.refArb(v) + float64(p*v)*m.refArb(p*v),
		SA: float64(p*p)*m.refMux(v, 1) + float64(p)*m.refArb(v) + float64(p)*m.refArb(p),
		XB: float64(p) * m.refMux(p, spec.FlitBits),
	}
}

func (m *Model) refCorrectionAreaGE(spec reliability.RouterSpec) refStages {
	p, v := spec.Ports, spec.VCs
	cmp := m.refComparator(spec.MeshNodes)
	portBits := refLog2ceil(p)
	vcBits := refLog2ceil(v)
	return refStages{
		RC: float64(2*p) * cmp,
		VA: m.refDFF(p * v * (portBits + 1 + vcBits)),
		SA: float64(p)*m.refMux(2, 1) + m.refDFF(p*vcBits+p*v*(portBits+1)),
		XB: float64(p)*m.refMux(2, spec.FlitBits) +
			float64(p-2)*m.refDemux(2, spec.FlitBits) +
			m.refDemux(3, spec.FlitBits),
	}
}

func (m *Model) refCorrectionPower(spec reliability.RouterSpec) refStages {
	p, v := spec.Ports, spec.VCs
	cmp := m.refComparator(spec.MeshNodes)
	portBits := refLog2ceil(p)
	vcBits := refLog2ceil(v)
	a := m.DFFActivity
	return refStages{
		RC: float64(2*p) * cmp,
		VA: m.refDFF(p*v*(portBits+1+vcBits)) * a,
		SA: float64(p)*m.refMux(2, 1) + m.refDFF(p*vcBits+p*v*(portBits+1))*a,
		XB: float64(p)*m.refMux(2, spec.FlitBits) +
			float64(p-2)*m.refDemux(2, spec.FlitBits) +
			m.refDemux(3, spec.FlitBits),
	}
}

func (m *Model) refAreaOverhead(spec reliability.RouterSpec, withDetection bool) float64 {
	base := m.refBaselineAreaGE(spec).Total()
	corr := m.refCorrectionAreaGE(spec).Total()
	if withDetection {
		corr += m.DetectionAreaFrac * base
	}
	return corr / base
}

func (m *Model) refPowerOverhead(spec reliability.RouterSpec, withDetection bool) float64 {
	base := m.refBaselineAreaGE(spec).Total() // all-combinational: activity 1
	corr := m.refCorrectionPower(spec).Total()
	if withDetection {
		corr += m.DetectionPowerFrac * base
	}
	return corr / base
}

// TestInventoryMatchesReference prices the parts inventory over 5,040
// router specs at two FIT operating points and requires every Table I/II
// FIT, area, power and overhead figure to equal the reference formulas
// bit for bit.
func TestInventoryMatchesReference(t *testing.T) {
	libs := []*reliability.FITLibrary{
		reliability.DefaultFITLibrary(),
		reliability.NewFITLibrary(reliability.DefaultTDDBParams(), 0.37, 1.1, 340),
	}
	m := DefaultModel()
	bad := 0
	check := func(spec reliability.RouterSpec, what string, ok bool) {
		if !ok && bad < 10 {
			bad++
			t.Errorf("%+v: %s differs from the reference", spec, what)
		}
	}
	for p := 3; p <= 9; p++ {
		for v := 1; v <= 16; v++ {
			for _, nodes := range []int{1, 2, 4, 9, 16, 64, 100, 256, 4096} {
				for _, w := range []int{1, 8, 32, 64, 128} {
					spec := reliability.RouterSpec{Ports: p, VCs: v, MeshNodes: nodes, FlitBits: w}
					base, corr := reliability.Baseline(spec), reliability.Correction(spec)
					for _, lib := range libs {
						check(spec, "Table I FIT", refBaselineStageFIT(lib, spec).eq(lib.StageFIT(base)))
						check(spec, "Table II FIT", refCorrectionStageFIT(lib, spec).eq(lib.StageFIT(corr)))
					}
					check(spec, "baseline area", m.refBaselineAreaGE(spec).eq(m.AreaGE(base)))
					check(spec, "correction area", m.refCorrectionAreaGE(spec).eq(m.AreaGE(corr)))
					check(spec, "baseline power", m.refBaselineAreaGE(spec).eq(m.PowerGE(base)))
					check(spec, "correction power", m.refCorrectionPower(spec).eq(m.PowerGE(corr)))
					for _, det := range []bool{false, true} {
						check(spec, "area overhead", m.refAreaOverhead(spec, det) == m.AreaOverhead(spec, det))
						check(spec, "power overhead", m.refPowerOverhead(spec, det) == m.PowerOverhead(spec, det))
					}
				}
			}
		}
	}
}

// TestLibraryMatchesReference checks that each of the paper's eleven
// library parts has the FET count of the component table, whether it
// comes from a calibrated override or from the generic model.
func TestLibraryMatchesReference(t *testing.T) {
	lib := map[int]reliability.Part{
		refComparator6: reliability.Comparator6, refArb4: reliability.Arb4, refArb5: reliability.Arb5,
		refArb20: reliability.Arb20, refMux4x1: reliability.Mux4x1, refMux5x1x32: reliability.Mux5x1x32,
		refMux2x1x32: reliability.Mux2x1x32, refMux2x1Ctl: reliability.Mux2x1Ctl,
		refDemux2x32: reliability.Demux2x32, refDemux3x32: reliability.Demux3x32, refDFFBit: reliability.DFFBit,
	}
	for row, want := range refTransistors {
		if got := reliability.Transistors(lib[row]); got != want {
			t.Errorf("%v: %d FETs, want %d", lib[row], got, want)
		}
	}
}

package area

import (
	"math"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/reliability"
)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestAreaOverheadMatchesPaper(t *testing.T) {
	m := DefaultModel()
	spec := reliability.PaperSpec()
	// Section VI-A: 28% before detection, 31% with detection.
	near(t, "area overhead (no detection)", m.AreaOverhead(spec, false), 0.28, 0.01)
	near(t, "area overhead (with detection)", m.AreaOverhead(spec, true), 0.31, 0.01)
}

func TestPowerOverheadMatchesPaper(t *testing.T) {
	m := DefaultModel()
	spec := reliability.PaperSpec()
	// Section VI-A: 29% before detection, 30% with detection.
	near(t, "power overhead (no detection)", m.PowerOverhead(spec, false), 0.29, 0.01)
	near(t, "power overhead (with detection)", m.PowerOverhead(spec, true), 0.30, 0.01)
}

func TestStageBreakdownSane(t *testing.T) {
	m := DefaultModel()
	spec := reliability.PaperSpec()
	base := m.AreaGE(reliability.Baseline(spec))
	corr := m.AreaGE(reliability.Correction(spec))
	for _, st := range []core.StageID{core.StageRC, core.StageVA, core.StageSA, core.StageXB} {
		if base.Stage(st) <= 0 || corr.Stage(st) <= 0 {
			t.Errorf("stage %v has non-positive area", st)
		}
	}
	// VA (400 arbiters' worth) dominates baseline area, as in real
	// routers' control logic; RC correction equals RC baseline (full
	// duplication).
	if base.VA <= base.RC || base.VA <= base.SA {
		t.Error("VA should dominate baseline control area")
	}
	near(t, "RC duplication", corr.RC, base.RC, 1e-9)
}

func TestAreaScalesWithStructure(t *testing.T) {
	m := DefaultModel()
	small := reliability.RouterSpec{Ports: 5, VCs: 2, MeshNodes: 64, FlitBits: 32}
	big := reliability.RouterSpec{Ports: 5, VCs: 8, MeshNodes: 64, FlitBits: 32}
	if m.AreaGE(reliability.Baseline(small)).Total() >= m.AreaGE(reliability.Baseline(big)).Total() {
		t.Error("baseline area did not grow with VCs")
	}
	wide := reliability.RouterSpec{Ports: 5, VCs: 4, MeshNodes: 64, FlitBits: 64}
	if m.AreaGE(reliability.Correction(reliability.PaperSpec())).XB >= m.AreaGE(reliability.Correction(wide)).XB {
		t.Error("XB correction area did not grow with flit width")
	}
}

func TestRelativeOverheadGrowsWithFewerVCs(t *testing.T) {
	// The correction circuitry is a bigger fraction of a smaller router —
	// this is what drives SPF ≈ 7 at 2 VCs (Section VIII-E).
	m := DefaultModel()
	two := reliability.RouterSpec{Ports: 5, VCs: 2, MeshNodes: 64, FlitBits: 32}
	four := reliability.PaperSpec()
	if m.AreaOverhead(two, true) <= m.AreaOverhead(four, true) {
		t.Errorf("overhead at 2 VCs (%v) not above 4 VCs (%v)",
			m.AreaOverhead(two, true), m.AreaOverhead(four, true))
	}
}

func TestSPFChainWithAreaModel(t *testing.T) {
	// End-to-end Table III row for the proposed router: the area model's
	// 31% overhead and the SPF analysis's mean of 15 give SPF ≈ 11.4.
	m := DefaultModel()
	spec := reliability.PaperSpec()
	r := reliability.AnalyzeSPF(spec.Ports, spec.VCs, m.AreaOverhead(spec, true))
	near(t, "proposed router SPF", r.SPF, 11.4, 0.1)

	// And the 2-VC corollary: SPF ≈ 7.
	two := reliability.RouterSpec{Ports: 5, VCs: 2, MeshNodes: 64, FlitBits: 32}
	r2 := reliability.AnalyzeSPF(two.Ports, two.VCs, m.AreaOverhead(two, true))
	near(t, "2-VC SPF", r2.SPF, 7.0, 0.45)
}

func TestCriticalPathMatchesPaper(t *testing.T) {
	c := DefaultCritPath()
	near(t, "RC overhead", c.Overhead(core.StageRC), 0.0, 1e-9)
	near(t, "VA overhead", c.Overhead(core.StageVA), 0.20, 1e-9)
	near(t, "SA overhead", c.Overhead(core.StageSA), 0.10, 1e-9)
	near(t, "XB overhead", c.Overhead(core.StageXB), 0.25, 1e-9)
	b, p := c.ClockPeriodPs()
	if b != 510 {
		t.Errorf("baseline clock period %v, want 510 (VA-limited)", b)
	}
	if p != 612 {
		t.Errorf("protected clock period %v, want 612 (VA-limited)", p)
	}
}

package reliability

import (
	"math"
	"testing"
	"testing/quick"

	"gonoc/internal/core"
)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestCalibratedPerFET(t *testing.T) {
	p := DefaultTDDBParams()
	near(t, "FIT/FET", p.FITPerFET(1.0, 1.0, 300), 0.1, 1e-12)
	// Duty cycle scales linearly (Equation 3).
	near(t, "FIT/FET@50%", p.FITPerFET(0.5, 1.0, 300), 0.05, 1e-12)
}

func TestFORCPhysicsTrends(t *testing.T) {
	p := DefaultTDDBParams()
	// Higher temperature accelerates TDDB.
	if p.FORC(1.0, 340) <= p.FORC(1.0, 300) {
		t.Error("FORC did not increase with temperature")
	}
	// Higher voltage accelerates TDDB (voltage exponent is large and
	// positive at operating temperatures).
	if p.FORC(1.1, 300) <= p.FORC(1.0, 300) {
		t.Error("FORC did not increase with voltage")
	}
}

func TestComponentFITsMatchPaper(t *testing.T) {
	lib := DefaultFITLibrary()
	cases := []struct {
		c    Part
		want float64
	}{
		{Comparator6, 11.7},
		{Arb4, 7.4},
		{Arb5, 9.3},
		{Arb20, 36.9}, // paper prints 36.7; see EXPERIMENTS.md
		{Mux4x1, 4.8},
		{Mux5x1x32, 204.8},
		{Mux2x1x32, 51.2},
		{Mux2x1Ctl, 1.6},
		{Demux2x32, 32.0},
		{Demux3x32, 64.0},
		{DFFBit, 0.5},
	}
	for _, c := range cases {
		near(t, c.c.String(), lib.FIT(c.c), c.want, 1e-9)
	}
}

func TestTableIBaselineStageFIT(t *testing.T) {
	lib := DefaultFITLibrary()
	s := lib.StageFIT(Baseline(PaperSpec()))
	near(t, "RC", s.RC, 117, 1e-9)
	near(t, "VA", s.VA, 1478, 1e-9) // 100·7.4 + 20·36.9
	near(t, "SA", s.SA, 203.5, 1e-9)
	near(t, "XB", s.XB, 1024, 1e-9)
	near(t, "total", s.Total(), 2822.5, 1e-9)
}

func TestTableIICorrectionStageFIT(t *testing.T) {
	lib := DefaultFITLibrary()
	s := lib.StageFIT(Correction(PaperSpec()))
	near(t, "RC", s.RC, 117, 1e-9)
	near(t, "VA", s.VA, 60, 1e-9)
	near(t, "SA", s.SA, 53, 1e-9)
	near(t, "XB", s.XB, 416, 1e-9)
	near(t, "total", s.Total(), 646, 1e-9)
}

func TestEquation4BaselineMTTF(t *testing.T) {
	lib := DefaultFITLibrary()
	// Paper: ≈354,358 h from a rounded 2822 FIT; we carry 2822.5.
	near(t, "MTTF_baseline", MTTFBaseline(lib, PaperSpec()), 354296, 1)
}

func TestEquation6ProtectedMTTF(t *testing.T) {
	lib := DefaultFITLibrary()
	// Paper: ≈2,190,696 h.
	near(t, "MTTF_protected", MTTFProtected(lib, PaperSpec()), 2190696, 500)
}

func TestEquation7SixTimesImprovement(t *testing.T) {
	lib := DefaultFITLibrary()
	imp := Improvement(lib, PaperSpec())
	near(t, "improvement", imp, 6.18, 0.02)
	if imp < 5.5 || imp > 6.5 {
		t.Errorf("improvement %v not ≈6", imp)
	}
}

func TestExactParallelFormulaIsLower(t *testing.T) {
	lib := DefaultFITLibrary()
	exact := MTTFProtectedExact(lib, PaperSpec())
	paper := MTTFProtected(lib, PaperSpec())
	if exact >= paper {
		t.Fatalf("exact %v should be below paper arithmetic %v", exact, paper)
	}
	// The exact 1-out-of-2 MTTF still shows a large improvement (~4.6×).
	ratio := exact / MTTFBaseline(lib, PaperSpec())
	if ratio < 4 || ratio > 5 {
		t.Errorf("exact improvement %v outside [4, 5]", ratio)
	}
}

func TestParallelMTTFProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		l1, l2 := float64(a)+1, float64(b)+1
		p := ParallelMTTFPaper(l1, l2)
		e := ParallelMTTFExact(l1, l2)
		// Both exceed the better single component; exact ≤ paper.
		best := math.Max(MTTFHours(l1), MTTFHours(l2))
		return e > best && p > e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMTTFHours(t *testing.T) {
	near(t, "MTTF(2822)", MTTFHours(2822), 354358, 1)
	if !math.IsInf(MTTFHours(0), 1) {
		t.Error("MTTF of 0 FIT should be +Inf")
	}
}

func TestStageBoundsPaper(t *testing.T) {
	b := StageBounds(5, 4)
	want := map[core.StageID][2]int{
		core.StageRC: {5, 2},
		core.StageVA: {15, 4},
		core.StageSA: {5, 2},
		core.StageXB: {2, 2},
	}
	for _, sb := range b {
		w := want[sb.Stage]
		if sb.MaxTolerated != w[0] || sb.MinToFail != w[1] {
			t.Errorf("%v: bounds (%d, %d), want %v", sb.Stage, sb.MaxTolerated, sb.MinToFail, w)
		}
	}
}

func TestSPFPaperDesignPoint(t *testing.T) {
	r := AnalyzeSPF(5, 4, 0.31)
	if r.MinToFail != 2 || r.MaxToFail != 28 {
		t.Fatalf("fault bounds (%d, %d), want (2, 28)", r.MinToFail, r.MaxToFail)
	}
	near(t, "mean faults", r.MeanFaults, 15, 1e-9)
	near(t, "SPF", r.SPF, 11.45, 0.01) // paper prints 11.4
}

func TestSPFTwoVCs(t *testing.T) {
	// Section VIII-E: with 2 VCs the SPF value drops to ≈7.
	r := AnalyzeSPF(5, 2, 0.43)
	near(t, "mean faults (2 VCs)", r.MeanFaults, 10, 1e-9)
	near(t, "SPF (2 VCs)", r.SPF, 7.0, 0.05)
}

func TestSPFGrowsWithVCs(t *testing.T) {
	// "This SPF value increases further beyond 11 if the number of VCs
	// per input is increased beyond 4."
	prev := 0.0
	for _, v := range []int{2, 4, 6, 8} {
		r := AnalyzeSPF(5, v, 0.31)
		if r.SPF <= prev {
			t.Fatalf("SPF not increasing at %d VCs: %v <= %v", v, r.SPF, prev)
		}
		prev = r.SPF
	}
}

func TestNewSPFResult(t *testing.T) {
	// BulletProof's Table III row: 52% overhead, 3.15 faults → SPF 2.07.
	r := NewSPFResult("BulletProof", 0.52, 3.15)
	near(t, "BulletProof SPF", r.SPF, 2.07, 0.01)
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestGenericTransistorModels(t *testing.T) {
	// Off the calibrated sizes a part's FET count is the generic model.
	cases := []struct {
		p    Part
		want int
	}{
		{comparator(8), 156}, // 19.5·8
		{comparator(7), 137}, // 136.5, rounded
		{arbiter(8), 148},    // 18.5·8
		{arbiter(3), 56},     // 55.5, rounded
		{mux(3, 32), 1024},   // 16·32·2
		{demux(4, 8), 240},   // 10·8·3
		{register(12), 60},   // 5·12
		{arbiter(20), 369},   // calibrated, not 370
		{comparator(6), 117}, // calibrated
	}
	for _, c := range cases {
		if got := Transistors(c.p); got != c.want {
			t.Errorf("%v: %d FETs, want %d", c.p, got, c.want)
		}
	}
	// Monotonicity in size.
	if Transistors(arbiter(8)) <= Transistors(Arb4) || Transistors(mux(3, 32)) <= Transistors(Mux2x1x32) {
		t.Error("transistor models not monotone")
	}
}

func TestPartNames(t *testing.T) {
	for p, want := range map[Part]string{
		Comparator6: "6-bit comparator", Arb20: "20:1 arbiter", Mux4x1: "4:1 mux",
		Mux5x1x32: "32-bit 5:1 mux", Mux2x1Ctl: "2:1 mux", Demux3x32: "32-bit 1:3 demux",
		DFFBit: "DFF bit", register(12): "12-bit register",
	} {
		if got := p.String(); got != want {
			t.Errorf("%+v named %q, want %q", p, got, want)
		}
	}
}

func TestFaultBounds(t *testing.T) {
	for _, c := range []struct{ ports, vcs, min, max int }{
		{5, 4, 2, 28}, // Section VIII-E
		{5, 2, 2, 18},
		{5, 1, 1, 13}, // one VC: nothing to borrow, one VA fault kills a port
	} {
		min, max := FaultBounds(c.ports, c.vcs)
		if min != c.min || max != c.max {
			t.Errorf("FaultBounds(%d, %d) = (%d, %d), want (%d, %d)", c.ports, c.vcs, min, max, c.min, c.max)
		}
	}
}

func TestPerStageStage(t *testing.T) {
	s := PerStage{RC: 1, VA: 2, SA: 3, XB: 4}
	for id, want := range map[core.StageID]float64{core.StageRC: 1, core.StageVA: 2, core.StageSA: 3, core.StageXB: 4} {
		if got := s.Stage(id); got != want {
			t.Errorf("Stage(%v) = %v, want %v", id, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Stage of an unknown stage did not panic")
		}
	}()
	s.Stage(core.StageXB + 1)
}

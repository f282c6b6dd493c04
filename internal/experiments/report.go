package experiments

import (
	"fmt"
	"strings"

	"gonoc/internal/area"
	"gonoc/internal/core"
	"gonoc/internal/fault"
	"gonoc/internal/ftrouters"
	"gonoc/internal/reliability"
	"gonoc/internal/router"
	"gonoc/internal/sweep"
)

// ReliabilityReport bundles the Section VII results: Tables I and II and
// Equations 4–7.
type ReliabilityReport struct {
	// Baseline is Table I (FIT per baseline pipeline stage).
	Baseline reliability.StageFIT
	// Correction is Table II (FIT of the correction circuitry).
	Correction reliability.StageFIT
	// MTTFBaselineHours is Equation 4.
	MTTFBaselineHours float64
	// MTTFProtectedHours is Equation 6 (the paper's Equation 5
	// arithmetic).
	MTTFProtectedHours float64
	// MTTFProtectedExactHours uses the textbook 1-out-of-2 formula.
	MTTFProtectedExactHours float64
	// Improvement is Equation 7 (≈6).
	Improvement float64
}

// Reliability computes the full Section VII report at the paper's design
// point.
func Reliability() ReliabilityReport {
	lib := reliability.DefaultFITLibrary()
	spec := reliability.PaperSpec()
	return ReliabilityReport{
		Baseline:                reliability.BaselineStageFIT(lib, spec),
		Correction:              reliability.CorrectionStageFIT(lib, spec),
		MTTFBaselineHours:       reliability.MTTFBaseline(lib, spec),
		MTTFProtectedHours:      reliability.MTTFProtected(lib, spec),
		MTTFProtectedExactHours: reliability.MTTFProtectedExact(lib, spec),
		Improvement:             reliability.Improvement(lib, spec),
	}
}

// AreaReport bundles the Section VI results.
type AreaReport struct {
	// AreaOverhead and PowerOverhead include fault detection (0.31 and
	// 0.30 in the paper).
	AreaOverhead, PowerOverhead float64
	// AreaOverheadNoDetect and PowerOverheadNoDetect exclude it (0.28,
	// 0.29).
	AreaOverheadNoDetect, PowerOverheadNoDetect float64
	// CritPath is the Section VI-B per-stage critical-path model.
	CritPath area.CritPath
}

// Area computes the Section VI report at the paper's design point.
func Area() AreaReport {
	m := area.DefaultModel()
	spec := reliability.PaperSpec()
	return AreaReport{
		AreaOverhead:          m.AreaOverhead(spec, true),
		PowerOverhead:         m.PowerOverhead(spec, true),
		AreaOverheadNoDetect:  m.AreaOverhead(spec, false),
		PowerOverheadNoDetect: m.PowerOverhead(spec, false),
		CritPath:              area.DefaultCritPath(),
	}
}

// SPFTable computes Table III, deriving the proposed router's area
// overhead from the area model.
func SPFTable() []reliability.SPFResult {
	return ftrouters.TableIII(Area().AreaOverhead)
}

// SPFVCSweep computes the proposed router's SPF across VC counts
// (Section VIII-E's corollary: 7 at 2 VCs, 11.4 at 4, higher beyond).
func SPFVCSweep(vcs []int) []reliability.SPFResult {
	m := area.DefaultModel()
	out := make([]reliability.SPFResult, len(vcs))
	for i, v := range vcs {
		spec := reliability.RouterSpec{Ports: 5, VCs: v, MeshNodes: 64, FlitBits: 32}
		r := reliability.AnalyzeSPF(spec.Ports, spec.VCs, m.AreaOverhead(spec, true))
		r.Design = fmt.Sprintf("Proposed Router (%d VCs)", v)
		out[i] = r
	}
	return out
}

// CampaignTable runs the Monte-Carlo faults-to-failure campaigns of all
// four designs (the simulation counterpart of Table III's fault counts).
// The designs are independent seeded campaigns, so they run on up to
// workers goroutines (0 = all cores) with identical results at any
// worker count.
func CampaignTable(trials int, seed uint64, workers int) []ftrouters.CampaignResult {
	return CampaignTableObserved(trials, seed, workers, nil)
}

// CampaignTableObserved is CampaignTable with a progress callback (nil
// to disable): onTrial(design, done, total) runs after every trial of
// every design, so a long campaign can feed live telemetry gauges. The
// callback may be invoked concurrently from the sweep workers; the
// results are identical with or without it.
func CampaignTableObserved(trials int, seed uint64, workers int, onTrial func(design string, done, total int)) []ftrouters.CampaignResult {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	designs := []ftrouters.Design{
		ftrouters.NewBulletProof(), ftrouters.NewVicis(), ftrouters.NewRoCo(),
		fault.Proposed(cfg, fault.UniversePaper),
	}
	return sweep.Run(len(designs), workers, func(i int) ftrouters.CampaignResult {
		d := designs[i]
		var observe func(done, total int)
		if onTrial != nil {
			observe = func(done, total int) { onTrial(d.Name(), done, total) }
		}
		return ftrouters.FaultsToFailureObserved(d, trials, seed, observe)
	})
}

// FormatCampaign renders faults-to-failure campaign results, percentiles
// alongside the mean.
func FormatCampaign(rows []ftrouters.CampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Faults to failure (Monte-Carlo, %d trials)\n", rows[0].Trials)
	fmt.Fprintf(&b, "  %-24s %7s %5s %5s %5s %5s %5s\n", "Architecture", "mean", "p50", "p95", "p99", "min", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %7.2f %5d %5d %5d %5d %5d\n",
			r.Design, r.Mean, r.P50, r.P95, r.P99, r.Min, r.Max)
	}
	return b.String()
}

// FormatReliability renders Tables I/II and the MTTF analysis as text.
func FormatReliability(r ReliabilityReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — FIT of baseline pipeline stages (per 10⁹ h)\n")
	for _, st := range []core.StageID{core.StageRC, core.StageVA, core.StageSA, core.StageXB} {
		fmt.Fprintf(&b, "  %-3v %8.1f\n", st, r.Baseline.Stage(st))
	}
	fmt.Fprintf(&b, "  total %6.1f\n\n", r.Baseline.Total())
	fmt.Fprintf(&b, "Table II — FIT of correction circuitry (per 10⁹ h)\n")
	for _, st := range []core.StageID{core.StageRC, core.StageVA, core.StageSA, core.StageXB} {
		fmt.Fprintf(&b, "  %-3v %8.1f\n", st, r.Correction.Stage(st))
	}
	fmt.Fprintf(&b, "  total %6.1f\n\n", r.Correction.Total())
	fmt.Fprintf(&b, "Eq. 4  MTTF(baseline)  ≈ %10.0f h\n", r.MTTFBaselineHours)
	fmt.Fprintf(&b, "Eq. 6  MTTF(protected) ≈ %10.0f h (paper's Eq. 5 arithmetic)\n", r.MTTFProtectedHours)
	fmt.Fprintf(&b, "       MTTF(protected) ≈ %10.0f h (exact 1-of-2 formula)\n", r.MTTFProtectedExactHours)
	fmt.Fprintf(&b, "Eq. 7  improvement     ≈ %10.2f×\n", r.Improvement)
	return b.String()
}

// FormatSPF renders Table III as text.
func FormatSPF(rows []reliability.SPFResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — SPF comparison\n")
	fmt.Fprintf(&b, "  %-24s %6s %22s %6s\n", "Architecture", "Area", "#Faults to failure", "SPF")
	for _, r := range rows {
		areaCol := fmt.Sprintf("%.0f%%", r.AreaOverhead*100)
		if r.AreaOverhead == 0 {
			areaCol = "N/A"
		}
		fmt.Fprintf(&b, "  %-24s %6s %22.2f %6.2f\n", r.Design, areaCol, r.MeanFaults, r.SPF)
	}
	return b.String()
}

// FormatArea renders the full Section VI report (VI-A overheads followed
// by the VI-B critical path) as text.
func FormatArea(a AreaReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-A — synthesis overheads (protected vs baseline)\n")
	fmt.Fprintf(&b, "  area  +%.0f%% (correction only: +%.0f%%)\n", a.AreaOverhead*100, a.AreaOverheadNoDetect*100)
	fmt.Fprintf(&b, "  power +%.0f%% (correction only: +%.0f%%)\n\n", a.PowerOverhead*100, a.PowerOverheadNoDetect*100)
	b.WriteString(FormatCritPath(a))
	return b.String()
}

// FormatCritPath renders only the Section VI-B critical-path analysis:
// per-stage delays, the stage that sets the clock, and each stage's
// slack under the protected clock.
func FormatCritPath(a AreaReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-B — critical path per stage\n")
	prot := a.CritPath.ProtectedPs()
	bp, pp := a.CritPath.ClockPeriodPs()
	for _, st := range []core.StageID{core.StageRC, core.StageVA, core.StageSA, core.StageXB} {
		limiter := ""
		if prot.Stage(st) == pp {
			limiter = "  ← sets the clock"
		}
		fmt.Fprintf(&b, "  %-3v %6.0f ps → %6.0f ps (+%.0f%%, slack %.0f ps)%s\n",
			st, a.CritPath.BaselinePs.Stage(st), prot.Stage(st),
			a.CritPath.Overhead(st)*100, pp-prot.Stage(st), limiter)
	}
	fmt.Fprintf(&b, "  clock period %0.f ps → %0.f ps (+%.1f%%)\n", bp, pp, (pp/bp-1)*100)
	return b.String()
}

// FormatSuite renders a Figure 7/8 result as text.
func FormatSuite(s SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s latency, fault-free vs fault-injected (avg cycles)\n", s.Suite)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "  %-14s %7.1f → %7.1f  (+%5.1f%%, %d faults)  p50 %.0f→%.0f p95 %.0f→%.0f p99 %.0f→%.0f\n",
			p.App, p.FaultFree, p.Faulty, p.DeltaPct, p.Faults,
			p.FaultFreeQ.P50, p.FaultyQ.P50, p.FaultFreeQ.P95, p.FaultyQ.P95,
			p.FaultFreeQ.P99, p.FaultyQ.P99)
	}
	fmt.Fprintf(&b, "  overall latency increase: +%.1f%%\n", s.OverallDeltaPct)
	return b.String()
}

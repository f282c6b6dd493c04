// Benchmarks of the paper's simulated experiments, plus microbenchmarks
// of the simulator core. Each experiment benchmark reports the paper's
// headline quantity as a custom metric:
//
//	BenchmarkCampaign_FaultsToFailure — Monte-Carlo fault campaigns
//	BenchmarkFig7_SPLASH2             — Figure 7 (overall ≈ +10%)
//	BenchmarkFig8_PARSEC              — Figure 8 (overall ≈ +13%)
//	BenchmarkAblation_*               — design-choice sweeps (DESIGN.md)
//	BenchmarkDegradationCurve         — latency vs accumulated faults
//
// The analytic results (Tables I–III, Eq. 4–7, Sections VI-A/VI-B) are
// not benchmarks: `noctool paper` prints them, and EXPERIMENTS.md holds
// that output as a block cmd/noctool's tests regenerate and compare.
package gonoc

import (
	"fmt"
	"strings"
	"testing"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/traffic"
)

// --- Experiment benchmarks ---

// metricName makes a design or app name usable as a benchmark metric
// unit (no whitespace allowed).
func metricName(s string) string { return strings.ReplaceAll(s, " ", "_") }

func BenchmarkCampaign_FaultsToFailure(b *testing.B) {
	const trials = 2000
	for i := 0; i < b.N; i++ {
		rows := experiments.CampaignTable(trials, uint64(i)+1, 0)
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Mean, metricName(r.Design)+"_mean")
			}
		}
	}
}

// figureBench runs a whole suite once per iteration; at default benchtime
// this executes a single full-scale (8×8, 30k-cycle) run per suite.
func figureBench(b *testing.B, fig func(experiments.LatencyConfig) experiments.SuiteResult) {
	cfg := experiments.DefaultLatencyConfig()
	var res experiments.SuiteResult
	for i := 0; i < b.N; i++ {
		res = fig(cfg)
	}
	b.ReportMetric(res.OverallDeltaPct, "overall_delta_pct")
	for _, p := range res.Points {
		b.ReportMetric(p.DeltaPct, p.App+"_delta_pct")
	}
}

func BenchmarkFig7_SPLASH2(b *testing.B) { figureBench(b, experiments.Figure7) }

func BenchmarkFig8_PARSEC(b *testing.B) { figureBench(b, experiments.Figure8) }

// --- Microbenchmarks of the simulator core ---

func benchNetwork(b *testing.B, ft bool, faults bool) {
	rc := router.DefaultConfig()
	rc.FaultTolerant = ft
	// Workers pinned to 1: these benchmarks track the serial per-step cost
	// across revisions; parallel scaling is internal/noc's BenchmarkStep.
	src := traffic.NewSynthetic(64, 0.02, traffic.Uniform(64), traffic.Bimodal(1, 5, 0.6), 1)
	n := noc.MustNew(noc.Config{Width: 8, Height: 8, Router: rc, Warmup: 0, Workers: 1}, src)
	defer n.Close()
	if faults {
		fault.NewInjector(n, 5000, 2, true)
		n.Run(20000) // accumulate a fault population first
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.ReportMetric(float64(n.Stats().Ejected()), "pkts_delivered")
}

func BenchmarkNetworkStep_Baseline8x8(b *testing.B)        { benchNetwork(b, false, false) }
func BenchmarkNetworkStep_Protected8x8(b *testing.B)       { benchNetwork(b, true, false) }
func BenchmarkNetworkStep_ProtectedFaulty8x8(b *testing.B) { benchNetwork(b, true, true) }

// benchNetworkObs mirrors benchNetwork with the internal/obs layer
// attached, so comparing against BenchmarkNetworkStep_Protected8x8 (obs
// disabled — a nil pointer test per instrumentation site) quantifies the
// cost of counters alone and of counters plus event tracing.
func benchNetworkObs(b *testing.B, trace bool, faults bool) {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	o := obs.New(1 << 16)
	o.Tracer.SetEnabled(trace)
	rc.Obs = o
	src := traffic.NewSynthetic(64, 0.02, traffic.Uniform(64), traffic.Bimodal(1, 5, 0.6), 1)
	n := noc.MustNew(noc.Config{Width: 8, Height: 8, Router: rc, Warmup: 0, Workers: 1}, src)
	defer n.Close()
	if faults {
		fault.NewInjector(n, 5000, 2, true)
		n.Run(20000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.ReportMetric(float64(n.Stats().Ejected()), "pkts_delivered")
}

func BenchmarkNetworkStep_ObsCounters8x8(b *testing.B)    { benchNetworkObs(b, false, false) }
func BenchmarkNetworkStep_ObsTrace8x8(b *testing.B)       { benchNetworkObs(b, true, false) }
func BenchmarkNetworkStep_ObsTraceFaulty8x8(b *testing.B) { benchNetworkObs(b, true, true) }

func BenchmarkFaultCampaignProposed(b *testing.B) {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	for i := 0; i < b.N; i++ {
		fault.FaultsToFailure(rc, 100, uint64(i)+1, fault.UniversePaper)
	}
}

// --- Ablation benchmarks (design-choice studies from DESIGN.md) ---

func BenchmarkAblation_RotatePeriod(b *testing.B) {
	periods := []int{1, 4, 16, 64, 256}
	var pts []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationRotatePeriod(periods, 10000, 3)
	}
	for _, p := range pts {
		b.ReportMetric(p.AvgLatency, fmt.Sprintf("latency_period%d", p.Param))
	}
}

func BenchmarkAblation_VCCount(b *testing.B) {
	vcs := []int{1, 2, 4, 8}
	var pts []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationVCCount(vcs, 10000, 5)
	}
	for _, p := range pts {
		b.ReportMetric(p.AvgLatency, fmt.Sprintf("latency_%dvc", p.Param))
	}
}

func BenchmarkAblation_SecondaryPath(b *testing.B) {
	var res experiments.SecondaryPathAblation
	for i := 0; i < b.N; i++ {
		res = experiments.AblationSecondaryPath(10000, 7)
	}
	b.ReportMetric(res.ProtectedLatency, "protected_latency")
	b.ReportMetric(float64(res.ProtectedDelivered), "protected_delivered")
	b.ReportMetric(float64(res.BaselineStuck), "baseline_stuck_pkts")
}

func BenchmarkDegradationCurve(b *testing.B) {
	counts := []int{0, 30, 60, 120, 240}
	var pts []experiments.DegradationPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.DegradationCurve(counts, 10000, 11)
	}
	for _, p := range pts {
		b.ReportMetric(p.AvgLatency, fmt.Sprintf("latency_%dfaults", p.Faults))
	}
}

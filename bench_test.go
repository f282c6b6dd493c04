// Microbenchmarks of the simulator core (one 8x8 network step: the
// baseline, the protected, the faulted and the observed router) and the
// latency-vs-accumulated-faults curve. The paper's experiments are
// printed by `noctool latency`, `noctool campaign` and `noctool ablation`
// and timed by the benchmark module (benchmark/); the analytic results
// (Tables I–III, Eq. 4–7, Sections VI-A/VI-B) by `noctool paper`, whose
// output EXPERIMENTS.md holds as a block cmd/noctool's tests regenerate
// and compare.
package gonoc

import (
	"fmt"
	"testing"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/traffic"
)

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

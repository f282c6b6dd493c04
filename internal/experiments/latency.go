// Package experiments assembles the substrates into the paper's
// evaluation experiments: the Figure 7/8 latency studies, the Table I–III
// reliability computations and the Section VI area/power/critical-path
// report. Each experiment is a pure function of its configuration, so
// benchmarks, examples and the noctool CLI all regenerate identical
// numbers.
package experiments

import (
	"fmt"

	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/sweep"
	"gonoc/internal/topology"
	"gonoc/internal/workloads"
)

// LatencyConfig parameterizes a Figure 7/8 run.
type LatencyConfig struct {
	// Width and Height give the mesh (the paper's is 8×8).
	Width, Height int
	// Warmup is the statistics warmup window.
	Warmup sim.Cycle
	// Measure is how long to measure after warmup.
	Measure sim.Cycle
	// FaultMean is the injector's mean inter-fault interval per (router,
	// stage). The paper used 10M cycles on multi-billion-cycle GEM5
	// runs; we scale it to our simulation length so that a comparable
	// multiple-fault population is present during measurement.
	FaultMean sim.Cycle
	// Seed derives all randomness.
	Seed uint64
	// Workers bounds the simulations in flight across a suite (0 = all
	// cores). Every application is two simulations, fault free and fault
	// injected, and each is a job of its own, so a suite keeps Workers
	// cores busy to the end and never runs more than Workers networks at
	// once. RunApp alone ignores it: one application is one job.
	Workers int
	// StepWorkers shards each network's compute phase (noc.Config.Workers:
	// 0 = all cores, 1 = serial). Results are identical at any value; with
	// Workers already saturating the cores, 1 avoids oversubscription.
	StepWorkers int
}

// DefaultLatencyConfig returns the scaled-down Figure 7/8 configuration.
func DefaultLatencyConfig() LatencyConfig {
	return LatencyConfig{
		Width: 8, Height: 8,
		Warmup:    5000,
		Measure:   25000,
		FaultMean: 20000,
		Seed:      2014, // the paper's year; any seed works
		// The suite already runs one simulation per core; serial stepping
		// inside each network avoids oversubscription.
		StepWorkers: 1,
	}
}

// Quantiles summarizes one run's latency distribution tail, extracted
// from the collector's histogram.
type Quantiles struct {
	// P50, P95 and P99 are packet-latency percentiles in cycles.
	P50, P95, P99 float64
}

// LatencyPoint is one application's bar pair in Figure 7/8.
type LatencyPoint struct {
	// App is the benchmark name.
	App string
	// FaultFree and Faulty are average packet latencies in cycles.
	FaultFree, Faulty float64
	// FaultFreeQ and FaultyQ are the corresponding distribution tails —
	// the fault-tolerance mechanisms cost little on average but show up
	// in the tail, which the averages alone can't demonstrate.
	FaultFreeQ, FaultyQ Quantiles
	// DeltaPct is the percentage increase.
	DeltaPct float64
	// Faults is how many faults were present by the end of the faulty
	// run.
	Faults int
}

// SuiteResult aggregates a whole benchmark suite (one figure).
type SuiteResult struct {
	// Suite names the benchmark suite.
	Suite string
	// Points holds one entry per application.
	Points []LatencyPoint
	// OverallDeltaPct is the suite-average latency increase (the paper's
	// "overall NoC latency has increased by 10% / 13%").
	OverallDeltaPct float64
}

// latencyRun is the outcome of one simulation of a Figure 7/8 bar pair.
type latencyRun struct {
	avg    float64
	q      Quantiles
	faults int // faults present at the end of the run
}

// simulate runs app once on the protected-router network, fault free or
// under the fault injector. It is deterministic on cfg.Seed alone.
func simulate(app workloads.App, cfg LatencyConfig, faulty bool) latencyRun {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	mesh := topology.NewMesh(cfg.Width, cfg.Height)
	tr := workloads.NewCoherence(app, mesh, cfg.Seed)
	n := noc.MustNew(noc.Config{
		Width: cfg.Width, Height: cfg.Height, Router: rc, Warmup: cfg.Warmup,
		Workers: cfg.StepWorkers,
	}, tr)
	defer n.Close()
	var inj *fault.Injector
	if faulty {
		inj = fault.NewInjector(n, cfg.FaultMean, cfg.Seed^0x9e3779b9, true)
	}
	n.Run(cfg.Warmup + cfg.Measure)
	st := n.Stats()
	run := latencyRun{
		avg: st.AvgLatency(),
		q:   Quantiles{P50: st.Percentile(50), P95: st.Percentile(95), P99: st.Percentile(99)},
	}
	if inj != nil {
		run.faults = len(inj.Injected())
	}
	return run
}

// runApps produces every application's bar pair. The unit of work is one
// simulation, not one application: the 2·len(apps) runs — application i
// fault free is job 2i, fault injected job 2i+1 — go to a single
// sweep.Run, so cfg.Workers bounds the simulations in flight whatever the
// number of applications, and the results are paired by index. sim is
// simulate; a test passes a wrapper that counts the runs in flight.
func runApps(apps []workloads.App, cfg LatencyConfig, sim func(workloads.App, LatencyConfig, bool) latencyRun) []LatencyPoint {
	runs := sweep.Run(2*len(apps), cfg.Workers, func(i int) latencyRun {
		return sim(apps[i/2], cfg, i%2 == 1)
	})
	points := make([]LatencyPoint, len(apps))
	for i, app := range apps {
		clean, dirty := runs[2*i], runs[2*i+1]
		pt := LatencyPoint{
			App: app.Name, FaultFree: clean.avg, Faulty: dirty.avg,
			FaultFreeQ: clean.q, FaultyQ: dirty.q, Faults: dirty.faults,
		}
		if clean.avg > 0 {
			pt.DeltaPct = (dirty.avg - clean.avg) / clean.avg * 100
		}
		points[i] = pt
	}
	return points
}

// RunApp simulates one application fault-free and fault-injected on the
// protected-router network and returns its latency pair. It is the
// one-application case of runApps, with the pair run back to back
// whatever cfg.Workers says: callers loop over, fan out over and time
// RunApp as one job, and a pair run side by side is only as fast as the
// second core is free at that moment (measured on a two-core box: 21%
// slower beside a half-busy neighbour, where the back-to-back pair does
// not move). Parallelism belongs to RunSuite, which has 2·len(apps) jobs
// to balance.
func RunApp(app workloads.App, cfg LatencyConfig) LatencyPoint {
	return runApp(app, cfg, simulate)
}

// runApp is RunApp with the simulation passed in, as for runApps.
func runApp(app workloads.App, cfg LatencyConfig, sim func(workloads.App, LatencyConfig, bool) latencyRun) LatencyPoint {
	cfg.Workers = 1
	return runApps([]workloads.App{app}, cfg, sim)[0]
}

// RunSuite runs every application of a suite, cfg.Workers simulations at
// a time, and aggregates the figure.
func RunSuite(suite string, apps []workloads.App, cfg LatencyConfig) SuiteResult {
	points := runApps(apps, cfg, simulate)
	res := SuiteResult{Suite: suite, Points: points}
	var clean, dirty float64
	for _, p := range points {
		clean += p.FaultFree
		dirty += p.Faulty
	}
	if clean > 0 {
		res.OverallDeltaPct = (dirty - clean) / clean * 100
	}
	return res
}

// Figure7 reproduces the SPLASH-2 latency study.
func Figure7(cfg LatencyConfig) SuiteResult {
	return RunSuite("SPLASH-2", workloads.SPLASH2(), cfg)
}

// Figure8 reproduces the PARSEC latency study.
func Figure8(cfg LatencyConfig) SuiteResult {
	return RunSuite("PARSEC", workloads.PARSEC(), cfg)
}

// String implements fmt.Stringer.
func (s SuiteResult) String() string {
	return fmt.Sprintf("%s: overall +%.1f%% across %d apps", s.Suite, s.OverallDeltaPct, len(s.Points))
}

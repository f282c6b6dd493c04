package main

import (
	"hash/fnv"
	"math"

	"gonoc/internal/rng"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// defaultScale shrinks every duration in the workload constants below.
// The constants are the full-size workloads (15-24 s each on the 2-CPU
// reference box); at 1/8 one pass of a workload takes 2-4 s there, so a
// run repeats the pass several times inside -seconds and reports medians.
// -scale 1 runs the full-size workloads.
const defaultScale = 1.0 / 8

// Full-size workload constants. Durations scale with -scale; periods and
// rates are properties of the workload and do not.
const (
	fig7Warmup    = 5000
	fig7Measure   = 25000
	fig7FaultMean = 20000

	mesh64Warmup  = 1500
	mesh64Measure = 6000
	mesh64Rate    = 0.002 // about a quarter of the 64x64 saturation rate

	sweepWarmup  = 1000
	sweepMeasure = 9000

	flapCycles = 30000
	flapPeriod = 250 // kill at k*flapPeriod, repair half a period later
	flapRate   = 0.008
	// The retransmission timeout is a duration and scales, down to a floor
	// safely above the worst delivery latency of a flapping 16x16 network
	// (about 200 cycles). It is 1450 and not the round 1500 because a
	// multiple of flapPeriod re-offers a dropped packet exactly one kill
	// later: the copy is in flight when the tables change again, is dropped
	// again, and the drain then waits out an exponential backoff longer
	// than the run.
	flapTimeout      = 1450
	flapTimeoutFloor = 400

	observedWarmup  = 1000
	observedMeasure = 15000
	observedRate    = 0.004

	parityCycles   = 500
	checkMaxStates = 1 << 22
	activeSampling = 250 // cycles between active-router samples
)

// sweepRates is the load grid of mesh16_loadsweep; the 16x16 mesh
// saturates at about 0.031 packets/node/cycle.
var sweepRates = []float64{0.010, 0.020, 0.025, 0.030, 0.035, 0.045}

// env is what every workload derives its inputs from.
type env struct {
	seed  uint64
	scale float64
	nproc int
}

// cycles scales a full-size cycle count, keeping at least min.
func (e env) cycles(full, min int) sim.Cycle {
	return sim.Cycle(max(int(math.Round(float64(full)*e.scale)), min))
}

// derive returns the seed of one generator: -seed mixed with the
// generator's label, so no two generators share a stream and every input
// still follows from -seed alone.
func (e env) derive(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rng.New(e.seed ^ h.Sum64()).Uint64()
}

// simStats are the simulated-time results of a workload. They are exact:
// the simulator is deterministic, so a change that only makes it faster
// leaves them bit-identical.
type simStats struct {
	avgLatency float64 // cycles, creation to ejection
	p95Latency float64 // cycles
	p99Latency float64 // cycles; reported for the reader only, see README
	maxLatency float64 // cycles; likewise
	accepted   float64 // packets per node per cycle over the measured window
	delivery   float64 // unique packets delivered / offered, after Drain
}

// latencyOf reads the latency part of simStats off a collector.
func latencyOf(c *stats.Collector) simStats {
	return simStats{
		avgLatency: c.AvgLatency(),
		p95Latency: c.Percentile(95),
		p99Latency: c.Percentile(99),
		maxLatency: float64(c.MaxLatency()),
	}
}

// protectedConfig is the paper's fault-tolerant router, which every
// workload simulates.
func protectedConfig() router.Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	return rc
}

// obsCounts are exact observability counters summed over the network.
type obsCounts struct {
	stalls   [4]float64 // credit-starved, arbitration-lost, route-blocked, fault-drain
	saGrants float64
	linkFlit float64
}

// layerCounts are what one pass observed inside single layers. A zero
// means the workload never entered that layer.
type layerCounts struct {
	reroutes, retransmits, linkDrops, duplicates, drainCycles float64
	faultsInjected                                            float64
	mcStates, mcTransitions                                   float64
	activeSum                                                 float64 // sum of sampled active-router shares
	activeN                                                   int
	obs                                                       obsCounts
}

// infoLine is a result printed for the reader but not part of the
// metric contract: it exists on one workload only.
type infoLine struct {
	name  string
	value float64
	unit  string
}

// passResult is the outcome of one pass: the workload's fixed work, done
// once. Every pass of a run must agree on everything but host time.
type passResult struct {
	wall         float64 // host seconds of the timed region
	slices       []slice
	steps        float64 // Network.Step calls (model checker: transitions)
	routerCycles float64 // steps x routers of the network stepped
	states       float64 // network states produced: cycles, or distinct states explored
	packets      float64 // unique packets delivered
	mem          memMark // allocations over the timed region
	attempted    int
	failed       int
	failures     []string
	hash         uint64 // final Network.StateHash values, folded
	sim          simStats
	layer        layerCounts
	info         []infoLine
	keep         any // what the workload still holds when the timed region ends
}

// fail records a correctness failure that is not a failed operation.
func (r *passResult) fail(msg string) { r.failures = append(r.failures, msg) }

// foldHash mixes one more StateHash into the workload's hash.
func foldHash(acc, h uint64) uint64 { return (acc ^ h) * 0x100000001b3 }

// workload is one set of inputs the benchmark runs.
type workload interface {
	// offeredRate is the injection rate the traffic micro-benchmarks
	// replay, in packets per node per cycle.
	offeredRate() float64
	// setup builds and releases everything the workload constructs before
	// it steps: networks, generators, observers, scenarios.
	setup() error
	// verify runs the untimed checks (worker parity, reference replays)
	// and returns the failures it found.
	verify() ([]string, error)
	// pass does the workload's fixed work once, timing it from outside.
	// sampleLayers additionally records the per-layer observations that
	// cost time to take.
	pass(tr *spanLog, sampleLayers bool) (passResult, error)
}

// workloadNames lists the workloads in the order they run.
var workloadNames = []string{
	"fig7_splash2", "mesh64_lowload", "mesh16_loadsweep",
	"linkflap_recovery", "mesh32_observed", "check_2x2",
}

// newWorkload builds the named workload for e, or returns nil.
func newWorkload(name string, e env) workload {
	switch name {
	case "fig7_splash2":
		return newFigure7(e)
	case "mesh64_lowload":
		return newMesh64(e)
	case "mesh16_loadsweep":
		return newLoadSweep(e)
	case "linkflap_recovery":
		return newLinkFlap(e)
	case "mesh32_observed":
		return newObserved(e)
	case "check_2x2":
		return newCheck2x2(e)
	}
	return nil
}

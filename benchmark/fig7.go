package main

import (
	"fmt"
	"math"
	"time"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
	"gonoc/internal/workloads"
)

// paperFigure7DeltaPct is the suite latency increase under faults the
// paper reports for SPLASH-2 (Figure 7).
const paperFigure7DeltaPct = 10.0

// figure7 is the paper's Figure 7: every SPLASH-2 coherence application,
// fault free and fault injected, on the 8x8 protected mesh. The timed
// region calls experiments.RunApp, which is what a user of the
// reproduction waits for; RunApp returns latencies only, so the packet
// counts, the state hash and the delivery ratio come from a reference
// replay that verify builds from the same exported pieces and that must
// agree with RunApp bit for bit.
type figure7 struct {
	env  env
	cfg  experiments.LatencyConfig
	apps []workloads.App
	ref  fig7Reference
}

// fig7Reference is what the reference replay established.
type fig7Reference struct {
	clean, dirty []float64 // average latency per application
	faults       []int     // faults present at the end of each faulty run
	stepped      float64   // packets delivered by the end of the measured windows
	sim          simStats
	hash         uint64
	layer        layerCounts
	keep         any
}

func newFigure7(e env) workload {
	cfg := experiments.DefaultLatencyConfig()
	cfg.Warmup = e.cycles(fig7Warmup, 50)
	cfg.Measure = e.cycles(fig7Measure, 250)
	cfg.FaultMean = e.cycles(fig7FaultMean, 200)
	cfg.Seed = e.seed
	cfg.StepWorkers = 1
	return &figure7{env: e, cfg: cfg, apps: workloads.SPLASH2()}
}

// offeredRate is the mean request rate of the suite's applications.
func (w *figure7) offeredRate() float64 {
	sum := 0.0
	for _, a := range w.apps {
		sum += a.Rate
	}
	return sum / float64(len(w.apps))
}

// build mirrors the construction inside experiments.RunApp.
func (w *figure7) build(app workloads.App, faulty bool, workers int) (*noc.Network, *workloads.Coherence, *fault.Injector) {
	rc := protectedConfig()
	tr := workloads.NewCoherence(app, topology.NewMesh(w.cfg.Width, w.cfg.Height), w.cfg.Seed)
	n := noc.MustNew(noc.Config{
		Width: w.cfg.Width, Height: w.cfg.Height, Router: rc, Warmup: w.cfg.Warmup, Workers: workers,
	}, tr)
	var inj *fault.Injector
	if faulty {
		inj = fault.NewInjector(n, w.cfg.FaultMean, w.cfg.Seed^0x9e3779b9, true)
	}
	return n, tr, inj
}

func (w *figure7) setup() error {
	for _, app := range w.apps {
		for _, faulty := range []bool{false, true} {
			n, _, _ := w.build(app, faulty, 1)
			n.Close()
		}
	}
	return nil
}

// verify replays every run of the figure from exported pieces, keeping
// what RunApp does not return, and checks worker parity on the first
// application's faulty run.
func (w *figure7) verify() ([]string, error) {
	var failures []string
	ref := fig7Reference{sim: simStats{delivery: 1}}
	suite := stats.NewCollector(w.cfg.Warmup)
	nodes := float64(w.cfg.Width * w.cfg.Height)
	measured := 0.0
	for _, app := range w.apps {
		for _, faulty := range []bool{false, true} {
			n, tr, inj := w.build(app, faulty, 1)
			n.Run(w.cfg.Warmup)
			atWarmup := n.Stats().Ejected()
			for left := w.cfg.Measure; left > 0; {
				step := min(left, activeSampling)
				n.Run(step)
				left -= step
				ref.layer.activeSum += activeShare(n)
				ref.layer.activeN++
			}
			st := n.Stats()
			if faulty {
				ref.dirty = append(ref.dirty, st.AvgLatency())
				ref.faults = append(ref.faults, len(inj.Injected()))
				ref.layer.faultsInjected += float64(len(inj.Injected()))
			} else {
				ref.clean = append(ref.clean, st.AvgLatency())
			}
			if err := suite.Merge(st.Clone()); err != nil {
				return nil, fmt.Errorf("merge %s statistics: %w", app.Name, err)
			}
			ref.stepped += float64(st.Ejected())
			measured += float64(st.Ejected() - atWarmup)
			ref.hash = foldHash(ref.hash, n.StateHash())

			tr.StopAt(n.Now())
			if !n.Drain(n.Now() + drainLimit) {
				failures = append(failures, fmt.Sprintf("%s (faulty=%v): Drain timed out", app.Name, faulty))
			}
			ref.sim.delivery = min(ref.sim.delivery, st.DeliveryRatio())
			ref.layer.drainCycles += float64(n.Now() - w.cfg.Warmup - w.cfg.Measure)
			n.Close()
			ref.keep = n
		}
	}
	delivery := ref.sim.delivery
	ref.sim = latencyOf(suite)
	ref.sim.delivery = delivery
	ref.sim.accepted = measured / nodes / float64(w.cfg.Measure) / float64(2*len(w.apps))
	w.ref = ref

	var hashes [2]uint64
	cycles := w.env.cycles(parityCycles, 50)
	for i := range hashes {
		n, _, _ := w.build(w.apps[0], true, i+1)
		n.Run(cycles)
		hashes[i] = n.StateHash()
		n.Close()
	}
	if hashes[0] != hashes[1] {
		failures = append(failures, fmt.Sprintf("%s: StateHash at Workers 2 differs from Workers 1 after %d cycles", w.apps[0].Name, cycles))
	}
	return failures, nil
}

func (w *figure7) pass(tr *spanLog, _ bool) (passResult, error) {
	res := passResult{sim: w.ref.sim, hash: w.ref.hash, layer: w.ref.layer, keep: w.ref.keep, packets: w.ref.stepped}
	cyclesPerApp := float64(2 * (w.cfg.Warmup + w.cfg.Measure))
	nodes := float64(w.cfg.Width * w.cfg.Height)
	var clean, dirty float64

	before := markMem()
	start := time.Now()
	for i, app := range w.apps {
		var pt experiments.LatencyPoint
		end := tr.begin("experiments.RunApp")
		secs := timed(func() { pt = experiments.RunApp(app, w.cfg) })
		end()
		res.slices = append(res.slices, slice{work: cyclesPerApp * nodes, secs: secs})
		res.steps += cyclesPerApp
		clean += pt.FaultFree
		dirty += pt.Faulty

		// Each application is an operation.
		res.attempted++
		if !(pt.FaultFree > 0) || !(pt.Faulty > 0) || math.IsInf(pt.FaultFree+pt.Faulty, 0) || pt.Faults == 0 {
			res.failed++
		}
		if pt.FaultFree != w.ref.clean[i] || pt.Faulty != w.ref.dirty[i] || pt.Faults != w.ref.faults[i] {
			res.fail(fmt.Sprintf("%s: RunApp returned %v/%v with %d faults, the reference replay %v/%v with %d",
				app.Name, pt.FaultFree, pt.Faulty, pt.Faults, w.ref.clean[i], w.ref.dirty[i], w.ref.faults[i]))
		}
	}
	res.wall = time.Since(start).Seconds()
	res.mem = markMem().since(before)
	res.routerCycles = res.steps * nodes
	res.states = res.steps

	delta := (dirty - clean) / clean * 100
	res.info = []infoLine{
		{"sim_fault_delta_pct", delta, "%"},
		{"paper_err_pp", math.Abs(delta - paperFigure7DeltaPct), "pp"},
	}
	return res, nil
}

package main

import (
	"fmt"
	"math"

	"gonoc/internal/modelcheck"
	"gonoc/internal/noc"
	"gonoc/internal/stats"
)

// check2x2 proves the 2x2 mesh and the 2x2 torus deadlock free and fully
// delivering, fault free and under every single link or router fault,
// by exhaustive exploration: the single-fault sweeps modelcheck.CheckTopo
// runs, one Explore call per scenario so each can be timed. At full
// scale that is 22 scenarios and 393,984 states; below it every k-th
// scenario of the sweep runs, k = round(1/scale). The seed is ignored:
// the exploration is exhaustive.
type check2x2 struct {
	env       env
	scenarios []modelcheck.Scenario
	ref       checkReference
}

// checkReference holds the simulated-time results of the scenarios. The
// explorer reports none, so verify replays each scenario's simplest
// execution (inject every packet, then tick until the network drains) on
// a live network and reads its statistics.
type checkReference struct {
	sim     simStats
	packets float64
	hash    uint64
	layer   layerCounts
	keep    any
}

// sweep2x2 returns the scenarios of both single-fault sweeps, in
// CheckTopo's order.
func sweep2x2() []modelcheck.Scenario {
	var all []modelcheck.Scenario
	for _, topo := range []string{"mesh", "torus"} {
		all = append(all, modelcheck.SingleFaultSweep(modelcheck.RingOn(topo, 2, 2))...)
	}
	return all
}

// selectScenarios returns the scenarios a pass explores at e's scale.
func selectScenarios(e env) []modelcheck.Scenario {
	all := sweep2x2()
	stride := max(int(math.Round(1/e.scale)), 1)
	var out []modelcheck.Scenario
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out
}

func newCheck2x2(e env) workload {
	return &check2x2{env: e, scenarios: selectScenarios(e)}
}

func (w *check2x2) offeredRate() float64 { return 0.01 }

// injectAll returns the choices that offer every packet of the scenario.
func injectAll(sc modelcheck.Scenario) []modelcheck.Choice {
	var choices []modelcheck.Choice
	for _, p := range sc.Packets {
		choices = append(choices, modelcheck.Choice{Op: modelcheck.OpInject, Src: p.Src})
	}
	return choices
}

// replay builds the scenario's network, with its faults applied, and
// plays the given choices on it.
func replay(sc modelcheck.Scenario, choices []modelcheck.Choice) (*noc.Network, error) {
	n, err := modelcheck.Replay(sc, choices, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	return n, nil
}

func (w *check2x2) setup() error {
	for _, sc := range selectScenarios(w.env) {
		n, err := replay(sc, nil)
		if err != nil {
			return err
		}
		n.Close()
	}
	return nil
}

func (w *check2x2) verify() ([]string, error) {
	var failures []string
	ref := checkReference{sim: simStats{delivery: 1}}
	suite := stats.NewCollector(0)
	var nodeCycles float64
	for _, sc := range w.scenarios {
		n, err := replay(sc, injectAll(sc))
		if err != nil {
			return nil, err
		}
		for !n.Drain(n.Now()+1) && n.Now() < drainLimit {
			ref.layer.activeSum += activeShare(n)
			ref.layer.activeN++
		}
		st := n.Stats()
		if st.InFlight() != 0 {
			failures = append(failures, sc.Name+": the inject-then-tick replay did not drain")
		}
		if err := suite.Merge(st.Clone()); err != nil {
			return nil, fmt.Errorf("merge %s statistics: %w", sc.Name, err)
		}
		nodeCycles += float64(n.Now()) * float64(sc.Width*sc.Height)
		ref.layer.drainCycles += float64(n.Now())
		ref.layer.linkDrops += float64(st.Dropped())
		ref.hash = foldHash(ref.hash, n.StateHash())
		n.Close()
		ref.keep = n
	}
	// Packets to a dead router are dropped at the source by design, so the
	// ratio is over the packets with a reachable destination.
	deliverable := float64(suite.Created() - suite.Dropped())
	ref.sim = latencyOf(suite)
	ref.sim.accepted = float64(suite.Ejected()) / nodeCycles
	ref.sim.delivery = float64(suite.Ejected()) / deliverable
	ref.packets = float64(suite.Ejected())
	w.ref = ref
	return failures, nil
}

func (w *check2x2) pass(tr *spanLog, _ bool) (passResult, error) {
	res := passResult{sim: w.ref.sim, hash: w.ref.hash, layer: w.ref.layer, keep: w.ref.keep, packets: w.ref.packets}
	before := markMem()
	for _, sc := range w.scenarios {
		var r modelcheck.Result
		var err error
		end := tr.begin("modelcheck.Explore")
		secs := timed(func() { r, err = modelcheck.Explore(sc, modelcheck.Options{MaxStates: checkMaxStates}) })
		end()
		if err != nil {
			return res, fmt.Errorf("%s: %w", sc.Name, err)
		}
		res.wall += secs
		res.steps += float64(r.Transitions)
		res.routerCycles += float64(r.Transitions) * float64(sc.Width*sc.Height)
		res.states += float64(r.States)
		res.layer.mcStates += float64(r.States)
		res.layer.mcTransitions += float64(r.Transitions)

		// Each scenario is an operation; it fails unless it is proved.
		res.attempted++
		if r.Verdict != modelcheck.Proved {
			res.failed++
			res.fail(fmt.Sprintf("%s: %v (%s)", sc.Name, r.Verdict, r.Detail))
		}
	}
	// The scenarios differ in size by a factor of thirty, so they are not
	// equal-work slices: the whole pass is the one sample.
	res.slices = []slice{{work: res.routerCycles, secs: res.wall}}
	res.mem = markMem().since(before)
	res.info = []infoLine{
		{"scenarios", float64(len(w.scenarios)), "count"},
		{"states", res.layer.mcStates, "count"},
		{"transitions", res.layer.mcTransitions, "count"},
	}
	return res, nil
}

package fault

import (
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
)

// Injection records one fault injected into a live network.
type Injection struct {
	// Cycle is when the fault appeared.
	Cycle sim.Cycle
	// Router is the node id of the affected router.
	Router int
	// Site is the component hit.
	Site Site
}

// Injector injects permanent faults into a running network on a uniform
// random schedule, reproducing (at simulation-feasible scale) the paper's
// Section IX methodology: "we inject faults based on a uniform random
// variable with a mean of 10 million cycles. A fault is injected into a
// pipeline stage after 10 million cycles of its operation." Each
// (router, pipeline stage) pair carries its own schedule; when a
// schedule fires, a random still-healthy site in that stage is made
// faulty.
//
// With SafeOnly set, injections that would make a router non-functional
// are skipped (the paper's latency study measures a degraded but live
// network — packets are still delivered under multiple faults).
type Injector struct {
	net  *noc.Network
	mean sim.Cycle
	r    *rng.Stream

	// SafeOnly skips injections that would break a router.
	SafeOnly bool

	// obs receives injection events (nil when observability is off).
	obs *obs.Observer

	// next[router][stage] is the next scheduled injection cycle.
	next [][]sim.Cycle
	// sitesByStage[stage] lists site templates per stage.
	sitesByStage [4][]Site
	injected     []Injection
	faulty       map[int]map[Site]bool
}

// NewInjector attaches an injector to net with the given mean
// inter-injection interval per (router, stage). It registers itself as a
// network hook; faults then appear as the simulation runs.
func NewInjector(net *noc.Network, mean sim.Cycle, seed uint64, safeOnly bool) *Injector {
	inj := &Injector{
		net:      net,
		mean:     mean,
		r:        rng.New(seed),
		SafeOnly: safeOnly,
		obs:      net.Obs(),
		faulty:   map[int]map[Site]bool{},
	}
	cfg := net.Router(0).Config()
	for _, s := range Sites(cfg) {
		st := s.Kind.Stage()
		inj.sitesByStage[st] = append(inj.sitesByStage[st], s)
	}
	nodes := net.Topo().Nodes()
	inj.next = make([][]sim.Cycle, nodes)
	for n := range inj.next {
		inj.next[n] = make([]sim.Cycle, 4)
		for st := range inj.next[n] {
			inj.next[n][st] = inj.interval()
		}
	}
	net.AddHook(inj.hook)
	return inj
}

// interval draws a uniform inter-arrival time with the configured mean.
func (inj *Injector) interval() sim.Cycle {
	if inj.mean == 0 {
		return 1 << 62 // effectively never
	}
	return sim.Cycle(inj.r.Uint64n(uint64(2*inj.mean)) + 1)
}

// hook runs once per cycle.
func (inj *Injector) hook(c sim.Cycle) {
	for node := range inj.next {
		for st := range inj.next[node] {
			if c < inj.next[node][st] {
				continue
			}
			inj.next[node][st] = c + inj.interval()
			inj.inject(node, st, c)
		}
	}
}

// inject picks a random healthy site of stage st in router node.
func (inj *Injector) inject(node, st int, c sim.Cycle) {
	cands := inj.sitesByStage[st]
	if len(cands) == 0 {
		return
	}
	rt := inj.net.Router(node)
	done := inj.faulty[node]
	if done == nil {
		done = map[Site]bool{}
		inj.faulty[node] = done
	}
	// Random starting point, scan for a healthy site. Sites that are
	// already faulty — injected by us, by another injector, or set
	// manually — are skipped, so the safe-only rollback below can never
	// "repair" somebody else's fault.
	start := inj.r.Intn(len(cands))
	for i := 0; i < len(cands); i++ {
		s := cands[(start+i)%len(cands)]
		if done[s] || IsFaulty(rt, s) {
			continue
		}
		Apply(rt, s, true)
		if inj.SafeOnly && !rt.Functional() {
			Apply(rt, s, false)
			continue
		}
		done[s] = true
		inj.injected = append(inj.injected, Injection{Cycle: c, Router: node, Site: s})
		inj.obs.RecordFault(obs.KFaultsInjected, obs.EvFaultInject,
			c, node, int(s.Port), s.VC(), int32(s.Kind.Stage()), s.String())
		return
	}
}

// Injected returns the log of injected faults in order of appearance.
func (inj *Injector) Injected() []Injection {
	out := make([]Injection, len(inj.injected))
	copy(out, inj.injected)
	return out
}

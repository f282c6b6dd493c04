package experiments

import (
	"fmt"
	"strings"

	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/sweep"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// The link-fault delivery study: how the network-level fault model
// (dead links and routers), fault-aware two-layer turn-model routing and
// end-to-end NI retransmission together turn an otherwise
// packet-stranding fault into a latency blip. Each scenario injects its
// faults mid-measurement and runs to drain, so the delivery ratio
// reflects losses the recovery path failed to win back — 1.0000 means
// every unique packet arrived despite the fault.

// LinkFaultConfig parameterizes the study.
type LinkFaultConfig struct {
	// Width and Height give the router grid.
	Width, Height int
	// Topo selects the topology family, as noc.Config.Topo: "" or
	// "mesh" (the default), "torus" or "cmesh". Conc is the cmesh
	// concentration.
	Topo string
	Conc int
	// Rate is the per-node offered load in packets per cycle.
	Rate float64
	// Warmup is the statistics warmup window.
	Warmup sim.Cycle
	// Measure is how long traffic is offered after warmup.
	Measure sim.Cycle
	// FaultAt is the cycle the scenario's faults land (so packets are in
	// flight when the link dies — the hard case retransmission exists for).
	FaultAt sim.Cycle
	// Retx is the NI retransmission configuration for every run.
	Retx noc.RetxConfig
	// DrainLimit bounds the post-traffic drain.
	DrainLimit sim.Cycle
	// Seed derives all randomness.
	Seed uint64
	// Workers bounds scenario-level parallelism (0 = all cores); each
	// network steps serially.
	Workers int
}

// DefaultLinkFaultConfig returns the standard study setup: the paper's
// 8x8 mesh under moderate uniform load, a fault landing mid-measurement,
// and the retransmission timeout tuned above the post-fault latency
// tail, not just the fault-free p99 — a timeout inside the tail
// retransmits packets that were merely slow, and the spurious copies add
// load exactly where the detour already concentrates it.
func DefaultLinkFaultConfig() LinkFaultConfig {
	return LinkFaultConfig{
		Width: 8, Height: 8,
		Rate:       0.02,
		Warmup:     1000,
		Measure:    20000,
		FaultAt:    5000,
		Retx:       noc.RetxConfig{Timeout: 1500},
		DrainLimit: 200000,
		Seed:       2014,
	}
}

// Scenario is one study row: a name and the fault specs applied at
// LinkFaultConfig.FaultAt. An empty spec list is the fault-free baseline.
type Scenario struct {
	Name  string
	Specs []string
}

// ScenariosFromSpecs builds the scenario list for a comma-separated
// injection spec string (the noctool -inject grammar): the fault-free
// baseline followed by one single-fault scenario per spec. The specs are
// validated up front so a typo fails before any simulation runs.
func ScenariosFromSpecs(list string) ([]Scenario, error) {
	routers, sites, err := fault.ParseInjections(list)
	if err != nil {
		return nil, err
	}
	scenarios := []Scenario{{Name: "fault-free"}}
	for i := range routers {
		spec, err := fault.FormatInjection(routers[i], sites[i])
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, Scenario{Name: spec, Specs: []string{spec}})
	}
	return scenarios, nil
}

// ValidateScenarios checks every scenario's fault specs against the
// study's configured topology. ScenariosFromSpecs only checks the spec
// grammar — the dimensions live in the config — so range checking
// happens here, against the actual link table: an out-of-grid router
// fails on any family, a link spec pointing off the mesh edge fails on
// a mesh/cmesh, and the same spec on a torus validates because the edge
// router's port carries a wrap link there. In-router sites are checked
// against the scenarios' router configuration (fault.Site.Check).
func ValidateScenarios(cfg LinkFaultConfig, scenarios []Scenario) error {
	topo, err := topology.New(cfg.Topo, cfg.Width, cfg.Height, cfg.Conc)
	if err != nil {
		return err
	}
	rc := scenarioRouter()
	for _, sc := range scenarios {
		ids, sites, err := fault.ParseInjections(strings.Join(sc.Specs, ","))
		if err != nil {
			return err
		}
		for i, id := range ids {
			if id < 0 || id >= topo.Nodes() {
				return fmt.Errorf("experiments: scenario %q: router %d outside the %dx%d %s",
					sc.Name, id, cfg.Width, cfg.Height, topo.Kind())
			}
			if err := sites[i].Check(rc); err != nil {
				return fmt.Errorf("experiments: scenario %q: %w", sc.Name, err)
			}
			if sites[i].Kind == fault.LinkDead {
				if _, ok := topo.Neighbor(id, sites[i].Port); !ok {
					return fmt.Errorf("experiments: scenario %q: router %d has no %s link in a %dx%d %s",
						sc.Name, id, sites[i].Port, cfg.Width, cfg.Height, topo.Kind())
				}
			}
		}
	}
	return nil
}

// LinkFaultPoint is one scenario's outcome.
type LinkFaultPoint struct {
	// Scenario names the fault configuration.
	Scenario string
	// Created counts offered packets including retransmitted copies;
	// Delivered counts unique deliveries; Retransmits, Drops and
	// Duplicates account for every extra copy.
	Created, Delivered, Retransmits, Drops, Duplicates uint64
	// DeliveryRatio is unique deliveries per unique offered packet.
	DeliveryRatio float64
	// Reroutes counts RC decisions that deviated from XY to avoid a fault.
	Reroutes uint64
	// AvgLatency and P99 summarize the measured latency distribution, in
	// cycles (retransmitted packets carry their original creation stamp,
	// so recovery cost is included).
	AvgLatency, P99 float64
}

// scenarioRouter is the router every scenario runs on: the paper's
// protected router.
func scenarioRouter() router.Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	return rc
}

// runScenario simulates one scenario to drain.
func runScenario(sc Scenario, cfg LinkFaultConfig) LinkFaultPoint {
	nodes := cfg.Width * cfg.Height
	src := traffic.NewSynthetic(nodes, cfg.Rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), cfg.Seed)
	src.StopAt(cfg.Warmup + cfg.Measure)
	n := noc.MustNew(noc.Config{
		Width: cfg.Width, Height: cfg.Height, Topo: cfg.Topo, Conc: cfg.Conc,
		Router: scenarioRouter(), Warmup: cfg.Warmup, Workers: 1, Retx: cfg.Retx,
	}, src)
	defer n.Close()
	ids, sites, err := fault.ParseInjections(strings.Join(sc.Specs, ","))
	if err != nil {
		panic(err) // specs were validated by ScenariosFromSpecs
	}
	n.AddHook(func(c sim.Cycle) {
		if c != cfg.FaultAt {
			return
		}
		for i := range ids {
			if err := fault.ApplyNetwork(n, ids[i], sites[i], true); err != nil {
				panic(err)
			}
		}
	})
	n.Run(cfg.Warmup + cfg.Measure)
	n.Drain(cfg.Warmup + cfg.Measure + cfg.DrainLimit)
	st := n.Stats()
	var reroutes uint64
	for id := 0; id < nodes; id++ {
		reroutes += n.Router(id).Counters.Reroutes
	}
	return LinkFaultPoint{
		Scenario:      sc.Name,
		Created:       st.Created(),
		Delivered:     st.Ejected(),
		Retransmits:   st.Retransmits(),
		Drops:         st.Dropped(),
		Duplicates:    st.Duplicates(),
		DeliveryRatio: st.DeliveryRatio(),
		Reroutes:      reroutes,
		AvgLatency:    st.AvgLatency(),
		P99:           st.Percentile(99),
	}
}

// LinkFaultStudy runs every scenario (in parallel) and returns one point
// per scenario, in input order.
func LinkFaultStudy(cfg LinkFaultConfig, scenarios []Scenario) []LinkFaultPoint {
	return sweep.Map(scenarios, cfg.Workers, func(sc Scenario) LinkFaultPoint {
		return runScenario(sc, cfg)
	})
}

// FormatLinkFault renders the study as a fixed-width table.
func FormatLinkFault(points []LinkFaultPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Network-fault delivery campaign (%d scenarios)\n", len(points))
	fmt.Fprintf(&b, "  %-16s %9s %9s %6s %6s %5s %9s %8s %7s\n",
		"scenario", "delivered", "delivery", "retx", "drops", "dups", "reroutes", "avg lat", "p99")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-16s %9d %9.4f %6d %6d %5d %9d %8.2f %7.0f\n",
			p.Scenario, p.Delivered, p.DeliveryRatio, p.Retransmits, p.Drops,
			p.Duplicates, p.Reroutes, p.AvgLatency, p.P99)
	}
	return b.String()
}

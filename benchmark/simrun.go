package main

import (
	"fmt"
	"time"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/rng"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// simSpec is one open-loop synthetic-traffic simulation: a network, a
// Bernoulli source with uniform destinations and Bimodal(1,5,0.6) packet
// sizes, a warmup and a measured window cut into equal slices, and a
// drain.
type simSpec struct {
	label         string
	topo          string
	w, h          int
	rate          float64
	warmup        sim.Cycle // whole slices, see newSimSpec
	measure       sim.Cycle // whole slices
	perSlice      sim.Cycle
	seed          uint64
	retx          noc.RetxConfig
	obsMode       string // obsOff, obsOn or obsFlight
	flaps         bool   // a seeded link dies every flapPeriod and is repaired half a period later
	trackDelivery bool   // count application-level duplicate deliveries
}

// newSimSpec cuts warmup+measure into about slices equal pieces and
// rounds both windows up to whole pieces, so the warmup boundary falls on
// a slice boundary.
func newSimSpec(label, topo string, side int, rate float64, warmup, measure sim.Cycle, slices int, seed uint64) simSpec {
	per := max((warmup+measure)/sim.Cycle(slices), 1)
	roundUp := func(c sim.Cycle) sim.Cycle { return (c + per - 1) / per * per }
	return simSpec{
		label: label, topo: topo, w: side, h: side, rate: rate,
		warmup: roundUp(warmup), measure: roundUp(measure), perSlice: per, seed: seed,
	}
}

func (s simSpec) nodes() int         { return s.w * s.h }
func (s simSpec) horizon() sim.Cycle { return s.warmup + s.measure }

// Observability modes of a simulation: none; counters, stall attribution
// and utilization windows; and those plus the flight recorder. The event
// tracer is off in all three.
const (
	obsOff    = ""
	obsOn     = "obs"
	obsFlight = "flight"
)

// link names one inter-router link by the (node, port) SetLinkFault takes.
type link struct {
	node int
	port topology.Port
}

// flapSchedule draws, from seed, the link that dies in each flap period.
func flapSchedule(topo topology.Topology, flaps int, seed uint64) []link {
	var links []link
	for id := 0; id < topo.Nodes(); id++ {
		for _, p := range []topology.Port{topology.East, topology.South} {
			if _, ok := topo.Neighbor(id, p); ok {
				links = append(links, link{id, p})
			}
		}
	}
	r := rng.New(seed)
	out := make([]link, flaps)
	for i := range out {
		out[i] = links[r.Intn(len(links))]
	}
	return out
}

// deliveryLedger is the source of a run that tracks deliveries: it is the
// synthetic generator plus a per-source bitmap of delivered sequence
// numbers, so a packet the NIs hand to the application twice is counted.
type deliveryLedger struct {
	*traffic.Synthetic
	seen       [][]uint64
	duplicates int
}

func (l *deliveryLedger) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	word, bit := int(p.Seq/64), uint64(1)<<(p.Seq%64)
	row := l.seen[p.Src]
	for len(row) <= word {
		row = append(row, 0)
	}
	if row[word]&bit != 0 {
		l.duplicates++
	}
	row[word] |= bit
	l.seen[p.Src] = row
	return nil
}

// simNet is a built simulation, ready to step.
type simNet struct {
	n       *noc.Network
	obs     *obs.Observer
	ledger  *deliveryLedger
	flapErr error // first SetLinkFault error raised inside the cycle hook
}

// build constructs the network and its inputs. tr, when tracing, records
// the SetLinkFault calls the flap hook makes.
func (s simSpec) build(workers int, tr *spanLog) (*simNet, error) {
	nodes := s.nodes()
	src := traffic.NewSynthetic(nodes, s.rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), s.seed)
	src.StopAt(s.horizon())
	rc := protectedConfig()
	sn := &simNet{}
	if s.obsMode != obsOff {
		// Built exactly as perf.Measure builds its "obs" and "flight" modes.
		o := obs.New(1)
		o.Tracer.SetEnabled(false)
		o.Windows = obs.NewWindows(nodes, rc.Ports, rc.VCs, obs.DefaultBucketCycles, obs.DefaultWindowBucket)
		if s.obsMode == obsFlight {
			o.Flight = obs.NewFlightRecorder(nodes, obs.DefaultFlightEvents)
		}
		rc.Obs = o
		sn.obs = o
	}
	var tf noc.Traffic = src
	if s.trackDelivery {
		sn.ledger = &deliveryLedger{Synthetic: src, seen: make([][]uint64, nodes)}
		tf = sn.ledger
	}
	n, err := noc.New(noc.Config{
		Width: s.w, Height: s.h, Topo: s.topo, Router: rc,
		Warmup: s.warmup, Workers: workers, Retx: s.retx,
	}, tf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.label, err)
	}
	sn.n = n
	if s.flaps {
		// The last flap is repaired before the horizon, so the drain runs
		// on a healed network.
		sched := flapSchedule(n.Topo(), int(s.horizon()/flapPeriod)-1, s.seed^0x9e3779b97f4a7c15)
		n.AddHook(func(c sim.Cycle) {
			k, phase := int(c/flapPeriod), c%flapPeriod
			if k < 1 || k > len(sched) || (phase != 0 && phase != flapPeriod/2) {
				return
			}
			end := tr.begin("noc.SetLinkFault")
			err := n.SetLinkFault(sched[k-1].node, sched[k-1].port, phase == 0)
			end()
			if err != nil && sn.flapErr == nil {
				sn.flapErr = err
			}
		})
	}
	return sn, nil
}

// activeShare returns the share of routers holding at least one flit in
// an input VC.
func activeShare(n *noc.Network) float64 {
	nodes := n.Topo().Nodes()
	rc := n.Router(0).Config()
	active := 0
	for id := 0; id < nodes; id++ {
		r := n.Router(id)
	scan:
		for p := 0; p < rc.Ports; p++ {
			for v := 0; v < rc.VCs; v++ {
				if r.InputVC(topology.Port(p), v).Len() > 0 {
					active++
					break scan
				}
			}
		}
	}
	return float64(active) / float64(nodes)
}

// simOutcome is what one simulation contributed beyond the totals it
// added to the pass.
type simOutcome struct {
	stats       simStats
	midInFlight uint64 // packets in flight half-way through the measured window
	endInFlight uint64 // and at its end
}

// drainLimit bounds the cycles a Drain may take before it counts as a
// timeout; the slowest drain seen (the sweep's 0.045 point) takes a few
// thousand cycles.
const drainLimit = 200000

// run steps the simulation through its windows and drains it, adding its
// slices, totals and counters to res.
func (s simSpec) run(tr *spanLog, sampleLayers bool, res *passResult) (simOutcome, error) {
	endNew := tr.begin("noc.New")
	sn, err := s.build(1, tr)
	endNew()
	if err != nil {
		return simOutcome{}, err
	}
	n := sn.n
	defer n.Close()
	st := n.Stats()
	nodes := float64(s.nodes())
	var out simOutcome

	before := markMem()
	start := time.Now()
	var ejectedAtWarmup uint64
	nextSample := sim.Cycle(activeSampling)
	for n.Now() < s.horizon() {
		switch n.Now() {
		case s.warmup:
			ejectedAtWarmup = st.Ejected()
		case s.warmup + s.measure/2/s.perSlice*s.perSlice:
			out.midInFlight = st.InFlight()
		}
		end := tr.begin("noc.Run")
		secs := timed(func() { n.Run(s.perSlice) })
		end()
		res.slices = append(res.slices, slice{work: float64(s.perSlice) * nodes, secs: secs})
		if sampleLayers && n.Now() >= nextSample {
			res.layer.activeSum += activeShare(n)
			res.layer.activeN++
			nextSample = n.Now() + activeSampling
		}
	}
	out.endInFlight = st.InFlight()
	accepted := float64(st.Ejected()-ejectedAtWarmup) / nodes / float64(s.measure)

	end := tr.begin("noc.Drain")
	drained := n.Drain(n.Now() + drainLimit)
	end()
	drainCycles := n.Now() - s.horizon()
	if s.obsMode == obsFlight {
		end := tr.begin("obs.Windows.Snapshot")
		snap := sn.obs.Windows.Snapshot()
		top := snap.TopLinks(10)
		end()
		end = tr.begin("obs.FlightRecorder.Trigger")
		_, armed := n.TriggerFlightDump("benchmark")
		end()
		if len(top) == 0 || !armed {
			res.fail(s.label + ": the observed run produced no link totals or no flight dump")
		}
	}
	res.wall += time.Since(start).Seconds()
	alloc := markMem().since(before)
	res.mem.mallocs += alloc.mallocs
	res.mem.bytes += alloc.bytes

	steps := float64(n.Now())
	res.steps += steps
	res.routerCycles += steps * nodes
	res.states += steps
	res.packets += float64(st.Ejected())
	res.hash = foldHash(res.hash, n.StateHash())
	res.keep = n

	// Every unique packet is an operation; a Drain timeout fails them all.
	unique := int(st.Created() - st.Retransmits())
	res.attempted += unique
	if drained {
		res.failed += unique - int(st.Ejected())
	} else {
		res.failed += unique
		res.fail(fmt.Sprintf("%s: Drain timed out with %d packets in flight", s.label, st.InFlight()))
	}
	if sn.flapErr != nil {
		res.fail(fmt.Sprintf("%s: SetLinkFault: %v", s.label, sn.flapErr))
	}
	if sn.ledger != nil && sn.ledger.duplicates != 0 {
		res.fail(fmt.Sprintf("%s: %d packets reached the application twice", s.label, sn.ledger.duplicates))
	}

	out.stats = latencyOf(st)
	out.stats.accepted = accepted
	out.stats.delivery = st.DeliveryRatio()

	res.layer.retransmits += float64(st.Retransmits())
	res.layer.linkDrops += float64(st.Dropped())
	res.layer.duplicates += float64(st.Duplicates())
	res.layer.drainCycles += float64(drainCycles)
	for id := 0; id < s.nodes(); id++ {
		res.layer.reroutes += float64(n.Router(id).Counters.Reroutes)
	}
	if sn.obs != nil {
		for _, t := range sn.obs.Metrics.PerRouter() {
			for k := range res.layer.obs.stalls {
				res.layer.obs.stalls[k] += float64(t.Total[obs.StallKind(k).Kind()])
			}
			res.layer.obs.saGrants += float64(t.Total[obs.KSAGrants])
			res.layer.obs.linkFlit += float64(t.Total[obs.KLinkFlits])
		}
	}
	return out, nil
}

// parity re-runs the first cycles of the simulation at Workers 1 and 2
// and reports whether both reach the same StateHash.
func (s simSpec) parity(cycles sim.Cycle) (bool, error) {
	var hashes [2]uint64
	for i := range hashes {
		sn, err := s.build(i+1, nil)
		if err != nil {
			return false, err
		}
		sn.n.Run(cycles)
		hashes[i] = sn.n.StateHash()
		sn.n.Close()
		if sn.flapErr != nil {
			return false, sn.flapErr
		}
	}
	return hashes[0] == hashes[1], nil
}

// simSuite is a workload made of synthetic-traffic simulations run one
// after the other.
type simSuite struct {
	env     env
	specs   []simSpec
	latency int // index of the spec the latency metrics come from
	accept  int // index of the spec the accepted-throughput metric comes from
	// derive adds the workload's informational results.
	derive func(outs []simOutcome) []infoLine
}

func (w *simSuite) offeredRate() float64 { return w.specs[w.latency].rate }

func (w *simSuite) setup() error {
	for _, s := range w.specs {
		sn, err := s.build(1, nil)
		if err != nil {
			return err
		}
		sn.n.Close()
	}
	return nil
}

// verify checks worker parity on the first spec; with link flaps the
// window reaches past the first kill and repair.
func (w *simSuite) verify() ([]string, error) {
	s := w.specs[0]
	cycles := w.env.cycles(parityCycles, 50)
	if s.flaps {
		cycles = max(cycles, 2*flapPeriod)
	}
	same, err := s.parity(cycles)
	if err != nil {
		return nil, err
	}
	if !same {
		return []string{fmt.Sprintf("%s: StateHash at Workers 2 differs from Workers 1 after %d cycles", s.label, cycles)}, nil
	}
	return nil, nil
}

func (w *simSuite) pass(tr *spanLog, sampleLayers bool) (passResult, error) {
	var res passResult
	outs := make([]simOutcome, len(w.specs))
	delivery := 1.0
	for i, s := range w.specs {
		out, err := s.run(tr, sampleLayers, &res)
		if err != nil {
			return res, err
		}
		outs[i] = out
		delivery = min(delivery, out.stats.delivery)
	}
	res.sim = outs[w.latency].stats
	res.sim.accepted = outs[w.accept].stats.accepted
	res.sim.delivery = delivery
	if w.derive != nil {
		res.info = w.derive(outs)
	}
	return res, nil
}

func newMesh64(e env) workload {
	s := newSimSpec("mesh64", "mesh", 64, mesh64Rate,
		e.cycles(mesh64Warmup, 20), e.cycles(mesh64Measure, 20), 48, e.derive("mesh64_lowload"))
	return &simSuite{env: e, specs: []simSpec{s}}
}

func newLoadSweep(e env) workload {
	w := &simSuite{env: e, latency: 1, accept: len(sweepRates) - 1}
	for _, rate := range sweepRates {
		w.specs = append(w.specs, newSimSpec(fmt.Sprintf("mesh16@%.3f", rate), "mesh", 16, rate,
			e.cycles(sweepWarmup, 20), e.cycles(sweepMeasure, 20), 10, e.derive("mesh16_loadsweep")))
	}
	// The saturation rate is the highest grid rate whose average latency
	// stays within 3x the lowest rate's and whose in-flight count is not
	// growing between mid-run and the end (beyond sampling noise).
	w.derive = func(outs []simOutcome) []infoLine {
		sat := 0.0
		for i, o := range outs {
			growing := float64(o.endInFlight) > 1.25*float64(o.midInFlight)+16
			if o.stats.avgLatency <= 3*outs[0].stats.avgLatency && !growing {
				sat = sweepRates[i]
			}
		}
		return []infoLine{{"sim_saturation_rate", sat, "pkts/node/cycle"}}
	}
	return w
}

func newLinkFlap(e env) workload {
	w := &simSuite{env: e}
	for _, topo := range []string{"mesh", "torus"} {
		// All of the run is measured; whole flap periods, and at least two.
		cycles := max(e.cycles(flapCycles, 0)/flapPeriod, 2) * flapPeriod
		s := newSimSpec("flap-"+topo, topo, 16, flapRate, 0, cycles, int(cycles/flapPeriod)*2, e.derive("linkflap_recovery/"+topo))
		s.retx = noc.RetxConfig{Timeout: e.cycles(flapTimeout, flapTimeoutFloor)}
		s.flaps = true
		s.trackDelivery = true
		w.specs = append(w.specs, s)
	}
	return w
}

func newObserved(e env) workload {
	s := newSimSpec("mesh32-observed", "mesh", 32, observedRate,
		e.cycles(observedWarmup, 20), e.cycles(observedMeasure, 20), 48, e.derive("mesh32_observed"))
	s.obsMode = obsFlight
	return &simSuite{env: e, specs: []simSpec{s}}
}

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"

	"gonoc/internal/arbiter"
	"gonoc/internal/core"
	"gonoc/internal/crossbar"
	"gonoc/internal/fault"
	"gonoc/internal/flit"
	"gonoc/internal/ftrouters"
	"gonoc/internal/modelcheck"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/rng"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/sweep"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
	"gonoc/internal/tracefile"
	"gonoc/internal/traffic"
	"gonoc/internal/vc"
	"gonoc/internal/workloads"
)

// sink keeps results the compiler could otherwise prove unused.
var sink int

// layerBench times single layers from outside, through exported
// functions only. Its results do not depend on the workload, except that
// the traffic generators replay the workload's offered rate.
type layerBench struct {
	env  env
	rate float64
	tr   *spanLog
	out  map[string]float64
}

// runLayers measures every layer and returns the metrics by name.
func runLayers(e env, rate float64, tr *spanLog) (map[string]float64, error) {
	b := &layerBench{env: e, rate: rate, tr: tr, out: map[string]float64{}}
	steps := []struct {
		layer string
		run   func() error
	}{
		{"arbiter", b.arbiter}, {"vc+flit", b.buffers}, {"crossbar", b.crossbar},
		{"core", b.core}, {"topology", b.topology}, {"traffic", b.traffic},
		{"workloads", b.coherence}, {"noc.New", b.construction}, {"noc.Step", b.stepping},
		{"noc.Snapshot", b.snapshots}, {"noc.SetLinkFault", b.linkFaults},
		{"fault", b.campaigns}, {"stats", b.statistics}, {"obs", b.observability},
		{"modelcheck", b.modelcheck}, {"sweep+tracefile+rng", b.utilities},
	}
	for _, s := range steps {
		end := tr.begin("layers." + s.layer)
		err := s.run()
		end()
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", s.layer, err)
		}
	}
	return b.out, nil
}

func (b *layerBench) arbiter() error {
	one := []bool{false, false, true, false, false}
	all := []bool{true, true, true, true, true}
	rr := arbiter.NewRoundRobin(5)
	grant := func(a interface {
		Grant([]bool) (int, bool)
	}, req []bool) float64 {
		return nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				w, _ := a.Grant(req)
				sink += w
			}
		})
	}
	b.out["arbiter.rr_grant_ns"] = grant(rr, one)
	b.out["arbiter.rr_grant_full_ns"] = grant(rr, all)
	by := arbiter.NewBypassed(5, protectedConfig().BypassRotatePeriod)
	by.Arb.SetFaulty(true) // a dead stage-1 arbiter puts the port in bypass mode
	b.out["arbiter.bypassed_grant_ns"] = grant(by, all)
	return nil
}

func (b *layerBench) buffers() error {
	v := vc.NewVC(0, 4)
	f := &flit.Flit{Pkt: &flit.Packet{Size: 1}, Kind: flit.HeadTail}
	b.out["vc.push_pop_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			v.Push(f)
			v.Pop()
		}
	})
	p := &flit.Packet{Size: 5}
	b.out["flit.segment_ns_per_flit"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += len(flit.Segment(p))
		}
	}) / float64(p.Size)
	b.out["flit.segment_allocs_per_packet"] = allocsPerOp(1000, func() { sink += len(flit.Segment(p)) })
	return nil
}

func (b *layerBench) crossbar() error {
	x := crossbar.NewProtected(5)
	var err error
	b.out["crossbar.cycle_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			x.BeginCycle()
			for out := 0; out < 5; out++ {
				if e := x.Traverse((out+1)%5, out, false); e != nil {
					err = e
				}
			}
		}
	})
	return err
}

// loopback feeds the centre router of a 3x3 mesh on every input VC the
// way upstream routers and the NI would (credit-based, at most one flit
// per port per cycle) and returns every output flit's credit at once, so
// the router runs as loaded as its own pipeline allows.
type loopback struct {
	r     *core.Router
	cfg   router.Config
	feeds [][]feed // [port][vc]
	next  []int    // per port, the VC the round-robin starts at
	cycle sim.Cycle
	flits int // flits that left the router
}

// feed is the upstream side of one input VC: a packet sent again and
// again, the flits still to send, and the credits in hand.
type feed struct {
	flits   []*flit.Flit
	sent    int
	credits int
	busy    bool // the VC holds a packet whose tail has not left yet
}

func newLoopback(cfg router.Config) *loopback {
	mesh := topology.NewMesh(3, 3)
	const centre = 4
	l := &loopback{r: core.MustNew(centre, mesh, cfg), cfg: cfg, next: make([]int, cfg.Ports)}
	for p := 0; p < cfg.Ports; p++ {
		row := make([]feed, cfg.VCs)
		for v := range row {
			// Leave through a port other than the one the packet came in on.
			out := topology.Port((p + 1 + v%(cfg.Ports-1)) % cfg.Ports)
			dst := centre
			if out != topology.Local {
				dst, _ = mesh.Neighbor(centre, out)
			}
			size := 1 + 4*(v%2) // the 1- and 5-flit packets of coherence traffic
			pkt := &flit.Packet{Dst: dst, Size: size, Class: flit.Class(cfg.ClassOf(v))}
			row[v] = feed{flits: flit.Segment(pkt), sent: size, credits: cfg.Depth}
		}
		l.feeds = append(l.feeds, row)
	}
	return l
}

// tick feeds, ticks and drains the router once.
func (l *loopback) tick() {
	for p := range l.feeds {
		for k := 0; k < l.cfg.VCs; k++ {
			v := (l.next[p] + k) % l.cfg.VCs
			f := &l.feeds[p][v]
			if f.credits == 0 {
				continue
			}
			if f.sent == len(f.flits) {
				if f.busy {
					continue
				}
				f.sent, f.busy = 0, true
			}
			l.r.AcceptFlit(router.InFlit{In: topology.Port(p), VC: v, F: f.flits[f.sent]})
			f.sent++
			f.credits--
			l.next[p] = v + 1
			break
		}
	}
	l.r.Tick(l.cycle)
	l.cycle++
	for _, of := range l.r.TakeOutFlits() {
		l.r.AcceptCredit(core.CreditIn{Out: of.Out, VC: of.DownVC, VCFree: of.F.Kind.IsTail()})
		l.flits++
	}
	for _, cr := range l.r.TakeOutCredits() {
		f := &l.feeds[cr.In][cr.VC]
		f.credits++
		if cr.VCFree {
			f.busy = false
		}
	}
}

func (l *loopback) nsPerTick() float64 {
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			l.tick()
		}
	})
}

func (b *layerBench) core() error {
	cfg := protectedConfig()
	idle := core.MustNew(4, topology.NewMesh(3, 3), cfg)
	var cy sim.Cycle
	b.out["core.tick_idle_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			idle.Tick(cy)
			cy++
		}
	})

	loaded := newLoopback(cfg)
	b.out["core.tick_loaded_ns"] = loaded.nsPerTick()
	b.out["core.flits_per_loaded_tick"] = float64(loaded.flits) / float64(loaded.cycle)

	faulty := newLoopback(cfg)
	faulty.r.SetSA1Fault(topology.East, true)
	faulty.r.SetVA1Fault(topology.North, 0, true)
	faulty.r.SetXBFault(topology.South, true)
	b.out["core.tick_faulty_ns"] = faulty.nsPerTick()

	clone := func(f *flit.Flit) *flit.Flit { c := *f; return &c }
	state := loaded.r.SaveState(clone)
	b.out["core.state_save_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			state = loaded.r.SaveState(clone)
		}
	})
	b.out["core.state_restore_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			loaded.r.RestoreState(state, clone)
		}
	})
	return nil
}

func (b *layerBench) topology() error {
	const side, pairs = 16, 1024
	r := rng.New(b.env.derive("layers/topology"))
	var src, dst [pairs]int
	for i := range src {
		src[i], dst[i] = r.Intn(side*side), r.Intn(side*side)
	}
	route := func(t topology.Topology) float64 {
		return nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += int(t.Route(src[i%pairs], dst[i%pairs]))
			}
		})
	}
	b.out["topology.route_ns"] = (route(topology.NewMesh(side, side)) + route(topology.NewTorus(side, side))) / 2
	return nil
}

// traffic replays a second Synthetic, seeded like the workload's, outside
// any network.
func (b *layerBench) traffic() error {
	const nodes = 1024
	src := traffic.NewSynthetic(nodes, b.rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), b.env.derive("layers/traffic"))
	var cy sim.Cycle
	packets := 0
	sweepNodes := func() {
		for node := 0; node < nodes; node++ {
			packets += len(src.Offered(node, cy))
		}
		cy++
	}
	b.out["traffic.offered_ns_per_node_cycle"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sweepNodes()
		}
	}) / nodes
	packets = 0
	allocs := allocsPerOp(2000, sweepNodes) * 2000
	b.out["traffic.offered_allocs_per_packet"] = allocs / float64(max(packets, 1))
	return nil
}

func (b *layerBench) coherence() error {
	mesh := topology.NewMesh(8, 8)
	co := workloads.NewCoherence(workloads.SPLASH2()[0], mesh, b.env.derive("layers/workloads"))
	var cy sim.Cycle
	b.out["workloads.offered_ns_per_node_cycle"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			for node := 0; node < mesh.Nodes(); node++ {
				sink += len(co.Offered(node, cy))
			}
			cy++
		}
	}) / float64(mesh.Nodes())
	req := &flit.Packet{Src: 3, Dst: 40, Class: flit.Request, Size: 1}
	b.out["workloads.on_eject_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += len(co.OnEject(req, cy))
		}
	})
	return nil
}

// idleNet builds a protected network with no traffic source.
func idleNet(topo string, side, workers int) (*noc.Network, error) {
	return noc.New(noc.Config{Width: side, Height: side, Topo: topo, Router: protectedConfig(), Workers: workers}, nil)
}

func (b *layerBench) construction() error {
	for _, c := range []struct {
		name, topo string
		side       int
	}{{"8x8", "mesh", 8}, {"16x16", "mesh", 16}, {"32x32", "mesh", 32}, {"64x64", "mesh", 64}, {"torus16x16", "torus", 16}} {
		var err error
		b.out["noc.new_ms."+c.name] = nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				net, e := idleNet(c.topo, c.side, 1)
				if e != nil {
					err = e
					return
				}
				net.Close()
			}
		}) / 1e6
		if err != nil {
			return err
		}
	}
	return nil
}

// stepping measures the floor every cycle pays on a 64x64 mesh with no
// traffic at all, and what a second worker buys at the low-load rate.
func (b *layerBench) stepping() error {
	const side = 64
	nodes := side * side
	build := func(rate float64, workers int) (*noc.Network, error) {
		src := traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), b.env.derive("layers/stepping"))
		return noc.New(noc.Config{Width: side, Height: side, Router: protectedConfig(), Workers: workers}, src)
	}
	idle, err := build(0, 1)
	if err != nil {
		return err
	}
	b.out["noc.step_idle_ns_per_router"] = nsPerOp(func(n int) { idle.Run(sim.Cycle(n)) }) / float64(nodes)
	idle.Close()

	// A scaling point is only meaningful with a CPU per worker: with
	// fewer, the metric reads 0 ("refused") instead of a made-up ratio.
	b.out["noc.step_w2_ratio"] = 0
	if b.env.nproc < 2 {
		return nil
	}
	// Both networks are built and warmed before either is timed, and the
	// timed windows alternate, so neither side pays for fresh heap alone.
	var nets [2]*noc.Network
	for i := range nets {
		n, err := build(mesh64Rate, i+1)
		if err != nil {
			return err
		}
		defer n.Close()
		n.Run(30)
		nets[i] = n
	}
	var wall [2]float64
	for round := 0; round < 2; round++ {
		for i, n := range nets {
			wall[i] += timed(func() { n.Run(25) })
		}
	}
	b.out["noc.step_w2_ratio"] = wall[0] / wall[1]
	return nil
}

func (b *layerBench) snapshots() error {
	measure := func(suffix string, n *noc.Network) {
		snap := n.Snapshot()
		b.out["noc.snapshot_us."+suffix] = nsPerOp(func(k int) {
			for i := 0; i < k; i++ {
				snap = n.Snapshot()
			}
		}) / 1e3
		b.out["noc.restore_us."+suffix] = nsPerOp(func(k int) {
			for i := 0; i < k; i++ {
				n.Restore(snap)
			}
		}) / 1e3
		b.out["noc.statehash_us."+suffix] = nsPerOp(func(k int) {
			for i := 0; i < k; i++ {
				sink += int(n.StateHash() & 1)
			}
		}) / 1e3
	}

	// The 2x2 ring scenario, three cycles after every packet was injected:
	// the kind of state the model checker copies and hashes.
	sc := modelcheck.RingOn("mesh", 2, 2)
	choices := injectAll(sc)
	for i := 0; i < 3; i++ {
		choices = append(choices, modelcheck.Choice{Op: modelcheck.OpTick})
	}
	small, err := replay(sc, choices)
	if err != nil {
		return err
	}
	measure("2x2", small)
	small.Close()

	src := traffic.NewSynthetic(64, 0.02, traffic.Uniform(64), traffic.Bimodal(1, 5, 0.6), b.env.derive("layers/snapshots"))
	big, err := noc.New(noc.Config{Width: 8, Height: 8, Router: protectedConfig(), Workers: 1}, src)
	if err != nil {
		return err
	}
	big.Run(200)
	measure("8x8", big)
	big.Close()
	return nil
}

// linkFaults times SetLinkFault per mesh size: the mean of one kill and
// one repair, on a mesh and on a torus.
func (b *layerBench) linkFaults() error {
	for _, side := range []int{8, 16, 32} {
		total := 0.0
		for _, topo := range []string{"mesh", "torus"} {
			n, err := idleNet(topo, side, 1)
			if err != nil {
				return err
			}
			centre := side*side/2 + side/2
			for _, dead := range []bool{true, false} {
				total += timed(func() { err = n.SetLinkFault(centre, topology.East, dead) })
				if err != nil {
					return err
				}
			}
			n.Close()
		}
		b.out[fmt.Sprintf("noc.set_link_fault_us.%dx%d", side, side)] = total / 4 * 1e6
	}
	return nil
}

func (b *layerBench) campaigns() error {
	const trials = 20000
	seed := b.env.derive("layers/fault")
	secs := timed(func() { sink += fault.FaultsToFailure(protectedConfig(), trials, seed, fault.UniversePaper).Max })
	b.out["fault.campaign_trials_per_s"] = trials / secs
	secs = timed(func() { sink += ftrouters.FaultsToFailure(ftrouters.NewVicis(), trials, seed).Max })
	b.out["ftrouters.campaign_trials_per_s"] = trials / secs
	return nil
}

func (b *layerBench) statistics() error {
	c := stats.NewCollector(0)
	r := rng.New(b.env.derive("layers/stats"))
	p := &flit.Packet{Size: 5, Class: flit.Response}
	b.out["stats.record_ejection_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			p.EjectedAt = sim.Cycle(20 + r.Intn(400))
			c.RecordEjection(p)
		}
	})
	b.out["stats.percentile_us"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += int(c.Percentile(99))
		}
	}) / 1e3
	return nil
}

// observability runs the mesh32_observed configuration for a short
// window with observability off, with counters and windows on, and with
// the flight recorder armed as well, then times the report-path calls on
// the last of those networks.
func (b *layerBench) observability() error {
	spec := newSimSpec("layers-observed", "mesh", 32, observedRate, 100, 300, 4, b.env.derive("layers/obs"))
	var nets [3]*simNet
	for i, mode := range []string{obsOff, obsOn, obsFlight} {
		s := spec
		s.obsMode = mode
		sn, err := s.build(1, nil)
		if err != nil {
			return err
		}
		defer sn.n.Close()
		sn.n.Run(s.warmup)
		nets[i] = sn
	}
	// The three timed windows are interleaved, so a slow stretch of the
	// host lands on all three modes alike.
	const rounds = 3
	var wall [3]float64
	for r := 0; r < rounds; r++ {
		for i, sn := range nets {
			wall[i] += timed(func() { sn.n.Run(spec.measure / rounds) })
		}
	}
	last := nets[2]
	b.out["obs.on_overhead_pct"] = (wall[1] - wall[0]) / wall[0] * 100
	b.out["obs.flight_overhead_pct"] = (wall[2] - wall[1]) / wall[1] * 100

	b.out["obs.window_snapshot_us"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			snap := last.obs.Windows.Snapshot()
			sink += len(snap.TopLinks(10))
		}
	}) / 1e3
	b.out["obs.flight_trigger_us"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			d, _ := last.n.TriggerFlightDump("benchmark")
			sink += len(d.Events)
		}
	}) / 1e3
	srv := telemetry.NewServer(last.obs.Metrics)
	srv.Publish(last.n.Stats().Snapshot())
	srv.SetWindows(last.obs.Windows)
	// One scrape of a 32x32 registry takes a few hundred milliseconds, so
	// it is timed once.
	rec := httptest.NewRecorder()
	b.out["telemetry.scrape_ms"] = timed(func() {
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}) * 1e3
	if rec.Code != http.StatusOK {
		return fmt.Errorf("telemetry scrape returned HTTP %d", rec.Code)
	}

	// Hop spans are rebuilt from tracer events, so this run has the tracer on.
	rc := protectedConfig()
	rc.Obs = obs.New(1 << 16)
	nodes := spec.nodes()
	src := traffic.NewSynthetic(nodes, observedRate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), spec.seed)
	n, err := noc.New(noc.Config{Width: spec.w, Height: spec.h, Router: rc, Workers: 1}, src)
	if err != nil {
		return err
	}
	n.Run(200)
	b.out["obs.build_spans_ms"] = nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			sink += len(n.Spans().Packets)
		}
	}) / 1e6
	n.Close()
	return nil
}

func (b *layerBench) modelcheck() error {
	for _, topo := range []string{"mesh", "torus"} {
		// The dead-router scenarios are the sweep's small ones (about a
		// thousand states), enough to time a transition.
		sweepScenarios := modelcheck.SingleFaultSweep(modelcheck.RingOn(topo, 2, 2))
		sc := sweepScenarios[len(sweepScenarios)-1]
		var r modelcheck.Result
		var err error
		secs := timed(func() { r, err = modelcheck.Explore(sc, modelcheck.Options{MaxStates: checkMaxStates}) })
		if err != nil {
			return err
		}
		if r.Verdict != modelcheck.Proved {
			return fmt.Errorf("%s: %v", sc.Name, r.Verdict)
		}
		b.out["modelcheck.us_per_transition."+topo] = secs * 1e6 / float64(r.Transitions)
	}
	const walks = 64
	var res modelcheck.MCResult
	var err error
	secs := timed(func() {
		res, err = modelcheck.MonteCarlo(modelcheck.RingOn("mesh", 3, 3), modelcheck.MCOptions{Walks: walks, Seed: b.env.derive("layers/modelcheck")})
	})
	if err != nil {
		return err
	}
	if res.Violations != 0 {
		return fmt.Errorf("monte-carlo walks on the 3x3 ring found %d violations", res.Violations)
	}
	b.out["modelcheck.mc_walks_per_s"] = walks / secs
	return nil
}

func (b *layerBench) utilities() error {
	const jobs = 10000
	secs := timed(func() { sink += len(sweep.Run(jobs, 2, func(i int) int { return i })) })
	b.out["sweep.dispatch_us_per_job"] = secs * 1e6 / jobs

	const entries = 100000
	r := rng.New(b.env.derive("layers/tracefile"))
	trace := make([]traffic.TraceEntry, entries)
	for i := range trace {
		trace[i] = traffic.TraceEntry{Cycle: sim.Cycle(i / 4), Src: r.Intn(64), Dst: r.Intn(64), Size: 1 + 4*r.Intn(2)}
	}
	var buf bytes.Buffer
	var err error
	secs = timed(func() { err = tracefile.Write(&buf, trace) })
	if err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	b.out["tracefile.write_mb_per_s"] = mb / secs
	var back []traffic.TraceEntry
	secs = timed(func() { back, err = tracefile.Read(&buf) })
	if err != nil {
		return err
	}
	if len(back) != entries {
		return fmt.Errorf("tracefile: read %d of %d entries back", len(back), entries)
	}
	b.out["tracefile.read_mb_per_s"] = mb / secs

	b.out["rng.uint64_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += int(r.Uint64() & 1)
		}
	})
	return nil
}

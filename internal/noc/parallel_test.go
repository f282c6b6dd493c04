// Serial/parallel conformance suite for the two-phase network step.
//
// The contract under test: a simulation is bit-exact identical for every
// Config.Workers value — same per-packet timestamps, same statistics
// collector output, same observability event stream as the tracer reads
// it out, unsorted. The suite runs identical seeded workloads (open-loop
// synthetic, trace replay; baseline and fault-tolerant routers; static
// and randomly injected faults) at Workers=1 and Workers=N and compares
// everything observable.
package noc_test

import (
	"fmt"
	"runtime"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/fault"
	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// pktRecord is everything observable about one packet's journey.
type pktRecord struct {
	id                         uint64
	src, dst, size             int
	created, injected, ejected sim.Cycle
}

// recorder wraps a Traffic source and keeps a reference to every packet
// it offered, so per-packet latencies can be compared after the run.
type recorder struct {
	inner noc.Traffic
	pkts  []*flit.Packet
}

func (r *recorder) Offered(node int, c sim.Cycle) []*flit.Packet {
	ps := r.inner.Offered(node, c)
	r.pkts = append(r.pkts, ps...)
	return ps
}

func (r *recorder) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	return r.inner.OnEject(p, c)
}

// outcome bundles every observable a conformance case compares.
type outcome struct {
	packets []pktRecord
	summary string
	events  []obs.Event
	heat    string
	cycle   sim.Cycle
	// loaded and drained are the StateHash at the generation horizon,
	// packets in flight, and after Drain.
	loaded, drained uint64
	// mech sums the routers' fault-tolerance mechanism counters.
	mech core.Counters
}

// golden pins a case to values computed by another commit's simulator,
// so the case guards that commit's trajectory, not just self-agreement.
type golden struct {
	loaded, drained uint64
	summary         string
}

// timedFault is a fault injection spec applied at a specific cycle.
type timedFault struct {
	at   sim.Cycle
	spec string
}

// confCase is one workload/fault configuration of the suite.
type confCase struct {
	name        string
	topo        string // topology kind ("" = mesh)
	baseline    bool   // unprotected router instead of the FT design
	vcs         int    // VCs per port (0 = the default 4)
	classes     int    // message classes (0 = the default)
	makeTraffic func() noc.Traffic
	faults      []string     // injection specs applied before cycle 0
	midFaults   []timedFault // injection specs applied mid-run via a hook
	retx        noc.RetxConfig
	faultMean   sim.Cycle // random safe-only injector mean (0 = none)
	cycles      sim.Cycle
	golden      *golden // expected hashes and summary, when pinned
}

// stopAt is the generation horizon shared by the synthetic workloads so
// Drain terminates.
const stopAt = 2000

func uniformTraffic(seed uint64) func() noc.Traffic {
	return func() noc.Traffic {
		src := traffic.NewSynthetic(16, 0.06, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), seed)
		src.StopAt(stopAt)
		return src
	}
}

// bothClasses moves every third packet of a source into the response
// class, so both halves of a two-class VC range carry traffic.
type bothClasses struct {
	noc.Traffic
	offered int
}

func (b *bothClasses) Offered(node int, c sim.Cycle) []*flit.Packet {
	ps := b.Traffic.Offered(node, c)
	for _, p := range ps {
		if b.offered++; b.offered%3 == 0 {
			p.Class = flit.Response
		}
	}
	return ps
}

// saturatingTraffic offers a 4x4 mesh about twice the uniform load it can
// carry, in both message classes, so every VC of every port fills and the
// NI queues grow until the horizon (half the usual one: the backlog takes
// four times as long to drain as it took to build).
func saturatingTraffic(seed uint64) func() noc.Traffic {
	return func() noc.Traffic {
		src := traffic.NewSynthetic(16, 0.4, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), seed)
		src.StopAt(stopAt / 2)
		return &bothClasses{Traffic: src}
	}
}

func transposeTraffic(seed uint64) func() noc.Traffic {
	return func() noc.Traffic {
		src := traffic.NewSynthetic(16, 0.05, traffic.Transpose(topology.NewMesh(4, 4)), traffic.FixedSize(3), seed)
		src.StopAt(stopAt)
		return src
	}
}

// tornadoTorusTraffic drives the torus cases with the pattern that is
// adversarial for minimal torus routing: every packet crosses half its
// ring, so both dateline layers carry traffic.
func tornadoTorusTraffic(seed uint64) func() noc.Traffic {
	return func() noc.Traffic {
		tp, err := topology.New("torus", 4, 4)
		if err != nil {
			panic(err)
		}
		src := traffic.NewSynthetic(16, 0.05, traffic.Tornado(tp), traffic.FixedSize(3), seed)
		src.StopAt(stopAt)
		return src
	}
}

func traceTraffic() func() noc.Traffic {
	var entries []traffic.TraceEntry
	for c := sim.Cycle(0); c < stopAt; c += 7 {
		entries = append(entries,
			traffic.TraceEntry{Cycle: c, Src: int(c) % 16, Dst: (int(c) + 5) % 16, Size: 1 + int(c)%4},
			traffic.TraceEntry{Cycle: c + 2, Src: 15 - int(c)%16, Dst: int(c) % 16, Size: 2},
		)
	}
	// Drop self-sends the generator grammar forbids.
	kept := entries[:0]
	for _, e := range entries {
		if e.Src != e.Dst {
			kept = append(kept, e)
		}
	}
	entries = kept
	return func() noc.Traffic { return traffic.NewTrace(entries) }
}

func conformanceCases() []confCase {
	return []confCase{
		{
			name:        "uniform/ft/fault-free",
			makeTraffic: uniformTraffic(42),
			cycles:      stopAt,
		},
		{
			name:        "transpose/ft/static+injected-faults",
			makeTraffic: transposeTraffic(77),
			faults:      []string{"5:sa1:e", "6:va1:n:1", "10:xb:w", "9:rc:l"},
			faultMean:   600,
			cycles:      stopAt,
		},
		{
			name:        "uniform/baseline/fault-free",
			baseline:    true,
			makeTraffic: uniformTraffic(1234),
			cycles:      stopAt,
		},
		{
			name:        "tracefile/ft/static-faults",
			makeTraffic: traceTraffic(),
			faults:      []string{"0:sa1:s", "3:xb:w", "12:va1:e:0"},
			cycles:      stopAt,
		},
		{
			name:        "uniform/ft/static-link-fault+retx",
			makeTraffic: uniformTraffic(314),
			faults:      []string{"5:link:e", "10:router"},
			retx:        noc.RetxConfig{Timeout: 300, MaxRetries: 4},
			cycles:      stopAt,
		},
		{
			name:        "uniform/ft/midrun-link-faults+retx",
			makeTraffic: uniformTraffic(2718),
			midFaults: []timedFault{
				{at: 400, spec: "6:link:s"},
				{at: 900, spec: "9:link:n"},
				{at: 1400, spec: "1:router"},
			},
			retx:   noc.RetxConfig{Timeout: 300, MaxRetries: 4},
			cycles: stopAt,
		},
		{
			name:        "tornado/ft/torus/fault-free",
			topo:        "torus",
			makeTraffic: tornadoTorusTraffic(99),
			cycles:      stopAt,
		},
		{
			name:        "uniform/ft/torus/static-router-faults",
			topo:        "torus",
			makeTraffic: uniformTraffic(7001),
			faults:      []string{"5:sa1:e", "9:rc:l", "14:xb:w"},
			cycles:      stopAt,
		},
		{
			name:        "tornado/ft/torus/static-net-faults+retx",
			topo:        "torus",
			makeTraffic: tornadoTorusTraffic(4242),
			// 3:link:e is the row-0 wrap link, so the case exercises the
			// fault tables' wrap-crossing restriction, not just mesh detours.
			faults: []string{"3:link:e", "10:router"},
			retx:   noc.RetxConfig{Timeout: 300, MaxRetries: 4},
			cycles: stopAt,
		},
		{
			name:        "uniform/ft/torus/midrun-link-faults+retx",
			topo:        "torus",
			makeTraffic: uniformTraffic(8086),
			midFaults: []timedFault{
				{at: 400, spec: "0:link:w"}, // wrap link while packets are in flight
				{at: 900, spec: "6:link:s"},
			},
			retx:   noc.RetxConfig{Timeout: 300, MaxRetries: 4},
			cycles: stopAt,
		},
		{
			name:        "uniform/ft/static-faults",
			makeTraffic: uniformTraffic(555),
			faults:      []string{"5:sa1:e", "3:xb:w"},
			cycles:      stopAt,
		},
	}
}

// runCase runs one configuration at the given worker count and returns
// every observable.
func runCase(t *testing.T, cc confCase, workers int) outcome {
	t.Helper()
	o := obs.New(1 << 21)
	rc := router.DefaultConfig()
	rc.FaultTolerant = !cc.baseline
	rc.Obs = o
	if cc.vcs > 0 {
		rc.VCs, rc.Classes = cc.vcs, cc.classes
	}
	rec := &recorder{inner: cc.makeTraffic()}
	n, err := noc.New(noc.Config{
		Width: 4, Height: 4, Topo: cc.topo,
		Router: rc, Warmup: 100, Workers: workers, Retx: cc.retx,
	}, rec)
	if err != nil {
		t.Fatalf("%s: %v", cc.name, err)
	}
	defer n.Close()
	for _, spec := range cc.faults {
		id, site, err := fault.ParseInjection(spec)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		if err := fault.ApplyNetwork(n, id, site, true); err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
	}
	for _, mf := range cc.midFaults {
		mf := mf
		id, site, err := fault.ParseInjection(mf.spec)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		n.AddHook(func(c sim.Cycle) {
			if c == mf.at {
				if err := fault.ApplyNetwork(n, id, site, true); err != nil {
					t.Errorf("%s: %v", cc.name, err)
				}
			}
		})
	}
	if cc.faultMean > 0 {
		fault.NewInjector(n, cc.faultMean, 999, true)
	}
	n.Run(cc.cycles)
	loaded := n.StateHash()
	if !n.Drain(cc.cycles + 50000) {
		t.Fatalf("%s (workers=%d): did not drain, %d in flight",
			cc.name, workers, n.Stats().InFlight())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("%s (workers=%d): %v", cc.name, workers, err)
	}
	if d := o.Tracer.Dropped(); d != 0 {
		t.Fatalf("%s (workers=%d): trace ring wrapped (%d dropped); grow the capacity", cc.name, workers, d)
	}
	out := outcome{
		summary: n.Stats().Summary(),
		events:  o.Tracer.Events(),
		heat:    n.Heatmap(),
		cycle:   n.Now(),
		loaded:  loaded,
		drained: n.StateHash(),
	}
	for id := 0; id < n.Topo().Nodes(); id++ {
		c := n.Router(id).Counters
		out.mech.VA1Borrows += c.VA1Borrows
		out.mech.VA2Retries += c.VA2Retries
		out.mech.SABypassGrants += c.SABypassGrants
		out.mech.SATransfers += c.SATransfers
		out.mech.XBSecondary += c.XBSecondary
	}
	for _, p := range rec.pkts {
		out.packets = append(out.packets, pktRecord{
			id: p.ID, src: p.Src, dst: p.Dst, size: p.Size,
			created: p.CreatedAt, injected: p.InjectedAt, ejected: p.EjectedAt,
		})
	}
	return out
}

// diffOutcomes asserts two outcomes are bit-exact identical.
func diffOutcomes(t *testing.T, name string, workers int, ref, got outcome) {
	t.Helper()
	if ref.cycle != got.cycle {
		t.Errorf("%s: final cycle %d (workers=1) vs %d (workers=%d)", name, ref.cycle, got.cycle, workers)
	}
	if ref.loaded != got.loaded || ref.drained != got.drained {
		t.Errorf("%s (workers=%d): StateHash loaded/drained %#016x/%#016x vs reference %#016x/%#016x",
			name, workers, got.loaded, got.drained, ref.loaded, ref.drained)
	}
	if len(ref.packets) != len(got.packets) {
		t.Fatalf("%s: %d packets (workers=1) vs %d (workers=%d)",
			name, len(ref.packets), len(got.packets), workers)
	}
	for i := range ref.packets {
		if ref.packets[i] != got.packets[i] {
			t.Fatalf("%s (workers=%d): packet %d diverged:\n  serial:   %+v\n  parallel: %+v",
				name, workers, i, ref.packets[i], got.packets[i])
		}
	}
	if ref.summary != got.summary {
		t.Errorf("%s (workers=%d): stats diverged:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
			name, workers, ref.summary, workers, got.summary)
	}
	if ref.heat != got.heat {
		t.Errorf("%s (workers=%d): link-utilization heatmap diverged", name, workers)
	}
	if len(ref.events) != len(got.events) {
		t.Fatalf("%s: %d obs events (workers=1) vs %d (workers=%d)",
			name, len(ref.events), len(got.events), workers)
	}
	for i := range ref.events {
		if ref.events[i] != got.events[i] {
			t.Fatalf("%s (workers=%d): event %d diverged:\n  serial:   %+v\n  parallel: %+v",
				name, workers, i, ref.events[i], got.events[i])
		}
	}
}

// TestSerialParallelConformance is the acceptance suite: Workers=1 vs
// Workers=8 must be bit-exact on every configuration; the first
// configuration additionally checks uneven shard counts.
func TestSerialParallelConformance(t *testing.T) {
	for i, cc := range conformanceCases() {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			ref := runCase(t, cc, 1)
			if len(ref.packets) == 0 {
				t.Fatal("workload offered no packets")
			}
			if ref.summary == "" || len(ref.events) == 0 {
				t.Fatal("empty observables")
			}
			workerSet := []int{8}
			switch {
			case i == 0:
				workerSet = []int{2, 3, 8} // 3 does not divide 16: uneven shards
			case cc.topo != "":
				workerSet = []int{2, 4, 8} // new topology families: full worker sweep
			}
			for _, w := range workerSet {
				diffOutcomes(t, cc.name, w, ref, runCase(t, cc, w))
			}
		})
	}
}

// flapRun is one run of the link-flap conformance workload: the state
// hash at every cycle boundary, the end-of-run observables, and the first
// snapshot taken inside a dead-link discard.
type flapRun struct {
	outcome
	hashes []uint64
	snap   *noc.Snapshot
	snapAt int // index into hashes of the boundary snap was taken at
}

// runLinkFlap steps an 8x8 network under four-flit uniform traffic while
// a hook kills four links at cycles 50, 150, ... and repairs them 50
// cycles later, so heads meet dead links with their bodies still behind
// them and the fault tables come and go. Every cycle it checks credit
// conservation and, when ref is non-nil, that the state hash equals
// ref's; at the boundary ref took its mid-discard snapshot the network is
// overwritten from that snapshot and must carry on along the same
// trajectory.
func runLinkFlap(t *testing.T, topo string, workers int, ref *flapRun) *flapRun {
	t.Helper()
	const (
		stop     = 300 // traffic generation horizon
		flapStop = 400 // the last repair lands here, then the network heals for good
	)
	links := [][2]int{{27, int(topology.East)}, {36, int(topology.North)}, {18, int(topology.South)}, {45, int(topology.West)}}
	if topo == "torus" {
		// Column 7's East links and row 7's South links are wraps.
		links = [][2]int{{27, int(topology.East)}, {7, int(topology.East)}, {36, int(topology.North)}, {60, int(topology.South)}}
	}
	o := obs.New(1 << 16)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	src := traffic.NewSynthetic(64, 0.02, traffic.Uniform(64), traffic.FixedSize(4), 2014)
	src.StopAt(stop)
	n, err := noc.New(noc.Config{
		Width: 8, Height: 8, Topo: topo, Router: rc, Workers: workers,
		Retx: noc.RetxConfig{Timeout: 150, MaxRetries: 6},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.AddHook(func(c sim.Cycle) {
		if c == 0 || c > flapStop || c%50 != 0 {
			return
		}
		for _, lk := range links {
			if err := n.SetLinkFault(lk[0], topology.Port(lk[1]), c%100 == 50); err != nil {
				t.Errorf("cycle %d: %v", c, err)
			}
		}
	})

	run := &flapRun{}
	for limit := stop + 60000; ; {
		i := len(run.hashes)
		if ref != nil && i == ref.snapAt {
			n.Restore(ref.snap)
		}
		h := n.StateHash()
		if ref != nil && (i >= len(ref.hashes) || h != ref.hashes[i]) {
			t.Fatalf("workers=%d: cycle %d: state hash %016x diverged from the serial run", workers, n.Now(), h)
		}
		run.hashes = append(run.hashes, h)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: cycle %d: %v", workers, n.Now(), err)
		}
		if run.snap == nil && n.MidDiscard() {
			run.snap, run.snapAt = n.Snapshot(), i
		}
		if n.Now() >= stop && n.Stats().InFlight() == 0 && n.PendingRetx() == 0 {
			break
		}
		if int(n.Now()) >= limit {
			t.Fatalf("workers=%d: did not drain: %d in flight", workers, n.Stats().InFlight())
		}
		n.Step()
	}
	if ref != nil && len(run.hashes) != len(ref.hashes) {
		t.Fatalf("workers=%d: drained after %d cycles, serial run after %d", workers, len(run.hashes), len(ref.hashes))
	}
	checkFullDelivery(t, n, fmt.Sprintf("%s link flap, workers=%d", topo, workers))
	if d := o.Tracer.Dropped(); d != 0 {
		t.Fatalf("trace ring wrapped (%d dropped); grow the capacity", d)
	}
	run.outcome = outcome{
		summary: n.Stats().Summary(),
		events:  o.Tracer.Events(),
		heat:    n.Heatmap(),
		cycle:   n.Now(),
	}
	return run
}

// TestLinkFlapParallelConformance pins the one link-commit regime: with
// links dying and healing under multi-flit traffic — fault tables live,
// packets caught mid-discard — every worker count walks the serial run's
// trajectory cycle for cycle (StateHash, credit conservation), emits the
// same events and delivers everything; and a snapshot taken
// while a discard is in progress restores, at every worker count, onto
// that same trajectory. Dead-link discards happen in the serial local
// commit, so nothing here may depend on how the link commit is sharded.
func TestLinkFlapParallelConformance(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			ref := runLinkFlap(t, topo, 1, nil)
			if ref.snap == nil {
				t.Fatal("workload caught no packet mid-discard: the test would prove nothing")
			}
			for _, w := range []int{2, 3, 8} { // 3 does not divide 64: uneven shards
				diffOutcomes(t, topo+" link flap", w, ref.outcome, runLinkFlap(t, topo, w, ref).outcome)
			}
		})
	}
}

// TestGoldenDeterminism guards the commit phase against map-iteration or
// scheduling nondeterminism: three repeated runs of one seeded, faulted,
// parallel configuration must produce byte-identical statistics and
// identical event streams.
//
// The two wide-vc rows pin a router whose Ports·VCs (80) exceeds one
// request word, which no other network test reaches: saturated, so VA
// stage 2 arbitrates across several words every cycle, and the second
// with one fault of each arbitrated kind planted mid-run so borrow,
// retry, bypass with adoption and the secondary path all run on request
// words. Their hashes and summaries were computed by the last commit
// whose allocators scanned []bool request vectors (6158a9d); Workers 1
// and 3 must both reproduce them. golden-mesh-uniform's were computed at
// 9c84917, where the row ran under a second topology name that stepped
// exactly as the mesh does.
func TestGoldenDeterminism(t *testing.T) {
	cases := []confCase{
		{
			name:        "golden-mesh",
			makeTraffic: transposeTraffic(2014),
			faults:      []string{"5:sa1:e", "10:xb:w"},
			faultMean:   800,
			cycles:      stopAt,
		},
		{
			name:        "golden-torus",
			topo:        "torus",
			makeTraffic: tornadoTorusTraffic(2014),
			faults:      []string{"5:sa1:e", "10:xb:w"},
			faultMean:   800,
			cycles:      stopAt,
		},
		{
			name:        "golden-torus-netfaults",
			topo:        "torus",
			makeTraffic: tornadoTorusTraffic(2014),
			faults:      []string{"3:link:e", "5:link:e", "10:router"},
			retx:        noc.RetxConfig{Timeout: 300, MaxRetries: 4},
			cycles:      stopAt,
		},
		{
			name:        "golden-mesh-uniform",
			makeTraffic: uniformTraffic(2014),
			faults:      []string{"5:sa1:e", "10:xb:w"},
			cycles:      stopAt,
			golden: &golden{
				loaded: 0x11a80fbce6e2b704, drained: 0x02f857b4b88e2b85,
				summary: "created 1929 ejected 1929 measured 1819 in-flight 0\n" +
					"latency avg 17.00329851566795 net 16.759758108851017 min 7 max 42\n" +
					"latency p50 16 p95 28 p99 35\n" +
					"hist count 1819 sum 30929 netsum 30486\n" +
					"flits 4895 hopsum 4895\n" +
					"class 0 n 1819 latsum 30929\n",
			},
		},
		{
			name:        "golden-wide-vc",
			vcs:         16,
			classes:     2,
			makeTraffic: saturatingTraffic(2014),
			cycles:      stopAt / 2,
			golden: &golden{
				loaded: 0x0b35c06ac3f36fca, drained: 0x35367175299dc5c1,
				summary: "created 6341 ejected 6341 measured 5691 in-flight 0\n" +
					"latency avg 261.382885257424 net 78.47847478474785 min 7 max 810\n" +
					"latency p50 216 p95 606 p99 659\n" +
					"hist count 5691 sum 1487530 netsum 446621\n" +
					"flits 15055 hopsum 15055\n" +
					"class 0 n 3794 latsum 1.360393e+06\n" +
					"class 1 n 1897 latsum 127137\n",
			},
		},
		{
			name:        "golden-wide-vc-midrun-faults",
			vcs:         16,
			classes:     2,
			makeTraffic: saturatingTraffic(2014),
			midFaults: []timedFault{
				{at: 150, spec: "5:va1:e:3"},
				{at: 250, spec: "6:va2:s:2"},
				{at: 350, spec: "9:sa1:w"},
				{at: 450, spec: "10:sa2:n"},
				{at: 550, spec: "5:xb:e"},
			},
			cycles: stopAt / 2,
			golden: &golden{
				loaded: 0xd2f8c41893272237, drained: 0x94f972fbe3d661f7,
				summary: "created 6341 ejected 6341 measured 5691 in-flight 0\n" +
					"latency avg 320.762959058162 net 83.60499033561764 min 7 max 1146\n" +
					"latency p50 243 p95 873 p99 1062\n" +
					"hist count 5691 sum 1825462 netsum 475796\n" +
					"flits 15055 hopsum 15055\n" +
					"class 0 n 3794 latsum 1.650951e+06\n" +
					"class 1 n 1897 latsum 174511\n",
			},
		},
	}
	for _, cc := range cases {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			workers := []int{4, 4, 4}
			if cc.golden != nil {
				workers = []int{1, 3}
			}
			ref := runCase(t, cc, workers[0])
			if ref.summary == "" {
				t.Fatal("empty summary")
			}
			for rep, w := range workers[1:] {
				got := runCase(t, cc, w)
				if got.summary != ref.summary {
					t.Fatalf("run %d summary diverged:\n%s\nvs\n%s", rep+2, ref.summary, got.summary)
				}
				diffOutcomes(t, cc.name, w, ref, got)
			}
			g := cc.golden
			if g == nil {
				return
			}
			if ref.loaded != g.loaded || ref.drained != g.drained || ref.summary != g.summary {
				t.Errorf("trajectory left the pinned one: StateHash loaded/drained %#016x/%#016x, want %#016x/%#016x; summary\n%swant\n%s",
					ref.loaded, ref.drained, g.loaded, g.drained, ref.summary, g.summary)
			}
			if len(cc.midFaults) > 0 {
				m := ref.mech
				if m.VA1Borrows == 0 || m.VA2Retries == 0 || m.SABypassGrants == 0 || m.SATransfers == 0 || m.XBSecondary == 0 {
					t.Errorf("a planted fault's mechanism never ran: %+v", m)
				}
			}
		})
	}
}

// TestConfigWorkersValidation is the Config.Workers table test: negative
// values are rejected by New with a descriptive error; 0 defaults to
// GOMAXPROCS; any request is clamped to the node count.
func TestConfigWorkersValidation(t *testing.T) {
	nodes := 16
	wantDefault := runtime.GOMAXPROCS(0)
	if wantDefault > nodes {
		wantDefault = nodes
	}
	cases := []struct {
		workers int
		wantErr bool
		want    int
	}{
		{workers: -1, wantErr: true},
		{workers: -64, wantErr: true},
		{workers: 0, want: wantDefault},
		{workers: 1, want: 1},
		{workers: 5, want: 5},
		{workers: runtime.NumCPU() + 1000, want: nodes}, // > NumCPU: clamped to the mesh
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			cfg := noc.Config{Width: 4, Height: 4, Router: router.DefaultConfig(), Workers: tc.workers}
			n, err := noc.New(cfg, nil)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Workers=%d accepted, want error", tc.workers)
				}
				return
			}
			if err != nil {
				t.Fatalf("Workers=%d rejected: %v", tc.workers, err)
			}
			defer n.Close()
			if got := n.Workers(); got != tc.want {
				t.Fatalf("Workers=%d resolved to %d, want %d", tc.workers, got, tc.want)
			}
		})
	}
}

// TestCloseIdempotentAndRestartable: Close may be called repeatedly, and
// a closed network restarts its pool on the next Step.
func TestCloseIdempotentAndRestartable(t *testing.T) {
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(2), 7)
	n := noc.MustNew(noc.Config{Width: 4, Height: 4, Router: router.DefaultConfig(), Workers: 4}, src)
	n.Run(200)
	n.Close()
	n.Close()
	before := n.Stats().Created()
	n.Run(200) // restarts the pool
	if n.Stats().Created() <= before {
		t.Fatal("no traffic after pool restart")
	}
	n.Close()
}

package noc

import (
	"math"
	"runtime"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// steadyNetwork builds a network whose traffic stops at a fixed horizon
// and runs it until every NI has drained its injection queues and
// finished segmenting packets, while flits are still crossing the
// network. Past that point the only work left is the steady-state hot
// path — compute, local commit, link commit — which must not allocate.
// With observed set, counters, the windowed utilization ring and the
// flight recorder are all armed.
func steadyNetwork(t testing.TB, topo string, w, h, workers int, observed bool) *Network {
	t.Helper()
	nodes := w * h
	const stop = 400
	src := traffic.NewSynthetic(nodes, 0.02, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 7)
	src.StopAt(stop)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	if observed {
		o := obs.New(0)
		o.Windows = obs.NewWindows(nodes, rc.Ports, rc.VCs, obs.DefaultBucketCycles, obs.DefaultWindowBucket)
		o.Flight = obs.NewFlightRecorder(nodes, obs.DefaultFlightEvents)
		rc.Obs = o
	}
	n, err := New(Config{
		Width: w, Height: h, Topo: topo,
		Router: rc, Warmup: 50, Workers: workers,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(stop)
	// Flush the injection backlog: flit segmentation is the one
	// legitimate allocator left after the traffic horizon, and it runs
	// until the NI queues empty.
	for i := 0; i < 80 && !n.InjectionIdle(); i++ {
		n.Run(50)
	}
	if !n.InjectionIdle() {
		t.Fatal("injection backlog did not flush; raise the flush budget")
	}
	if n.Stats().Ejected() == 0 {
		t.Fatal("no ejections during warmup; the lazy histogram allocation was not exercised")
	}
	if n.Stats().InFlight() == 0 {
		t.Fatal("network drained during warmup; nothing steady-state to measure")
	}
	return n
}

// TestStepZeroAllocSteadyState pins the tentpole memory contract: once a
// network is past its injection transient, Step allocates nothing — on a
// 64x64 and a 32x32 mesh, on the torus, with every observability
// surface armed (handles are pre-bound and the rings pre-allocated) and
// with the compute phase sharded across workers — so stepping large
// meshes for millions of cycles puts no pressure on the garbage
// collector. Any new per-tick allocation in the compute or commit path
// fails this test.
func TestStepZeroAllocSteadyState(t *testing.T) {
	cases := []struct {
		name, topo string
		w, h       int
		workers    int
		observed   bool
	}{
		{"mesh-64x64", "", 64, 64, 1, false},
		{"torus-32x32", "torus", 32, 32, 1, false},
		{"mesh-32x32", "", 32, 32, 1, false},
		{"mesh-16x16-obs-flight", "", 16, 16, 1, true},
		{"torus-32x32-w4", "torus", 32, 32, 4, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := steadyNetwork(t, tc.topo, tc.w, tc.h, tc.workers, tc.observed)
			defer n.Close()
			if allocs := testing.AllocsPerRun(20, func() { n.Step() }); allocs != 0 {
				t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
			}
			if n.Stats().InFlight() == 0 {
				t.Fatal("network drained during measurement; the window no longer covers the hot path")
			}
		})
	}
}

// countClones returns how many flits and distinct packets the network
// holds at a step boundary: what one Snapshot or Restore has to clone.
func countClones(n *Network) (flits, pkts int) {
	seen := map[*flit.Packet]bool{}
	add := func(f *flit.Flit) {
		flits++
		seen[f.Pkt] = true
	}
	for id, r := range n.routers {
		cfg := r.Config()
		for p := 0; p < cfg.Ports; p++ {
			for v := 0; v < cfg.VCs; v++ {
				for _, f := range r.InputVC(topology.Port(p), v).Flits() {
					add(f)
				}
			}
		}
		for _, fl := range n.nis[id].active {
			for _, f := range fl {
				add(f)
			}
		}
		for _, q := range n.nis[id].queues {
			for _, p := range q {
				seen[p] = true
			}
		}
		latched, _ := n.routers[id].Inputs()
		for _, w := range latched {
			add(w.F)
		}
	}
	return flits, len(seen)
}

// TestModelCheckTransitionAllocs pins the memory contract of the model
// checker's inner loop — restore a held snapshot, step, save the new
// state into recycled storage — on a loaded 2x2 network. A recycled
// SnapshotInto allocates nothing at all: flit and packet clones land in
// buffers the snapshot owns. Restore allocates the live flits and the
// live packets, one block of each, and nothing else: no slices, no maps,
// no collector. The step in between allocates only the copy-on-write of
// the short histogram arrays an ejection touches. When each clone was a
// heap object of its own this was 18 objects per Restore and 18 per
// SnapshotInto here; before snapshots were recycled, about 48 KB per
// transition.
func TestModelCheckTransitionAllocs(t *testing.T) {
	src := traffic.NewSynthetic(4, 0.4, traffic.Uniform(4), traffic.Bimodal(1, 5, 0.6), 17)
	src.StopAt(100)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	n, err := New(Config{Width: 2, Height: 2, Router: rc, Workers: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Run(100)
	for i := 0; !n.InjectionIdle(); i++ {
		if i == 2000 {
			t.Fatal("injection backlog did not flush")
		}
		n.Step()
	}
	flits, pkts := countClones(n)
	if flits < 4 || pkts < 2 {
		t.Fatalf("only %d flits of %d packets in flight; nothing loaded to measure", flits, pkts)
	}
	t.Logf("%d flits of %d packets held", flits, pkts)

	snap := n.Snapshot()
	spare := n.Snapshot()
	const blocks = 2 // the live flits, the live packets
	if got := testing.AllocsPerRun(50, func() { n.Restore(snap) }); got != blocks {
		t.Errorf("Restore allocates %.0f objects, want %d: one block of live flits, one of live packets", got, blocks)
	}
	if got := testing.AllocsPerRun(50, func() { spare = n.SnapshotInto(spare) }); got != 0 {
		t.Errorf("SnapshotInto recycled storage allocates %.0f objects, want none", got)
	}
	// lat, net and one class histogram per ejecting class, each at most
	// once per restore.
	const histograms = 2 + flit.NumClasses
	got := testing.AllocsPerRun(50, func() {
		n.Restore(snap)
		n.Step()
	})
	if got < blocks || got > blocks+histograms {
		t.Errorf("Restore+Step allocates %.0f objects, want the %d clone blocks plus at most %d histogram copies", got, blocks, histograms)
	}
}

// TestFreshSnapshotIsAHandfulOfObjects pins the layout of a snapshot the
// model checker's frontier holds, on its own 2x2 configuration (2 VCs,
// one class, depth 2, the ring scenario's four single-flit packets) at
// every step boundary from injection to drain: at most 16 heap objects
// and 4 KB, where the object-graph layout was about 130 and 17 KB. Bytes
// must also be an honest account: within a size-class rounding of what
// the allocator handed out for the snapshot.
func TestFreshSnapshotIsAHandfulOfObjects(t *testing.T) {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.VCs, rc.Classes, rc.Depth = 2, 1, 2
	n, err := New(Config{Width: 2, Height: 2, Router: rc, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 4; i++ {
		n.Inject(i, &flit.Packet{Dst: (i + 1) % 4, Size: 1})
	}
	const maxObjects, maxBytes = 16, 4 << 10
	var keep *Snapshot
	for boundary := 0; n.stats.InFlight() > 0; boundary++ {
		if boundary == 100 {
			t.Fatal("the ring did not drain")
		}
		if got := testing.AllocsPerRun(10, func() { keep = n.Snapshot() }); got > maxObjects {
			t.Errorf("boundary %d: a fresh Snapshot is %.0f objects, want <= %d", boundary, got, maxObjects)
		}
		// The least of three: the runtime allocates now and then too.
		heap := maxBytes * 2
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			keep = n.Snapshot()
			runtime.ReadMemStats(&after)
			heap = min(heap, int(after.TotalAlloc-before.TotalAlloc))
		}
		if b := keep.Bytes(); b > maxBytes || heap > maxBytes {
			t.Errorf("boundary %d: a fresh Snapshot retains %d bytes by its own account and %d by the allocator's, want <= %d", boundary, b, heap, maxBytes)
		} else if heap < b || heap > b+b/4 {
			t.Errorf("boundary %d: Bytes reports %d, the allocator handed out %d", boundary, b, heap)
		}
		n.Step()
	}
}

// TestNewIsUnderTenKilobytesARouter pins what a node of a 64x64 protected
// mesh retains once built — router, NI, and its share of the network's
// latches, link registers and tables — at most 4,600 bytes and 19 heap
// objects (4,362 and 18 measured, and 4,374 and 19 under the race
// detector, which keeps one more object a node; 4,498 and 18 while the
// router carried a tally of every mechanism event, with one input latch
// per router and its rows in blocks; 5,656 and 19 with the network's own link
// latches, 9,516 and 28 when the block layout landed). The pointer-graph router
// with 24-byte latch entries retained 11,307 bytes in 93 objects, and
// mesh64_lowload's live heap is almost all of this times 4,096.
func TestNewIsUnderTenKilobytesARouter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64x64 network three times")
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	const side, maxBytes, maxObjects = 64, 4600, 19
	nodes := side * side
	bytes, objects := math.MaxInt, math.MaxInt
	// The least of three: the runtime allocates now and then too.
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		n, err := New(Config{Width: side, Height: side, Router: rc, Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(n)
		bytes = min(bytes, int(after.HeapAlloc-before.HeapAlloc)/nodes)
		objects = min(objects, int(after.HeapObjects-before.HeapObjects)/nodes)
	}
	t.Logf("%d bytes and %d objects retained per node", bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("a 64x64 node retains %d bytes in %d objects, want <= %d bytes and %d objects", bytes, objects, maxBytes, maxObjects)
	}
}

// benchStep measures steady-state step throughput with live traffic at
// the given injection rate; rate 0 measures the floor every cycle pays
// with nothing in flight.
func benchStep(b *testing.B, topo string, w, h, workers int, rate float64) {
	nodes := w * h
	src := traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 7)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	n, err := New(Config{Width: w, Height: h, Topo: topo, Router: rc, Workers: workers}, src)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Run(64) // fill the pipelines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/router")
}

func BenchmarkStep(b *testing.B) {
	cases := []struct {
		name, topo string
		w, h       int
		workers    int
		rate       float64
	}{
		{"mesh-8x8-w1", "", 8, 8, 1, 0.02},
		{"mesh-16x16-w1", "", 16, 16, 1, 0.02},
		// Near saturation, the load sweep's busiest point: most occupied
		// VCs are past VC allocation, where the stage words pay.
		{"mesh-16x16-sat-w1", "", 16, 16, 1, 0.03},
		{"mesh-32x32-w1", "", 32, 32, 1, 0.02},
		{"mesh-64x64-w1", "", 64, 64, 1, 0.02},
		{"mesh-64x64-w2", "", 64, 64, 2, 0.02},
		{"mesh-64x64-w4", "", 64, 64, 4, 0.02},
		{"mesh-64x64-w8", "", 64, 64, 8, 0.02},
		// The idle floor, beside the benchmark's noc.step_idle_ns_per_router.
		{"mesh-64x64-idle-w1", "", 64, 64, 1, 0},
		{"torus-32x32-w1", "torus", 32, 32, 1, 0.02},
		{"torus-32x32-w4", "torus", 32, 32, 4, 0.02},
		{"mesh-32x32-w4", "", 32, 32, 4, 0.02},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) { benchStep(b, tc.topo, tc.w, tc.h, tc.workers, tc.rate) })
	}
}

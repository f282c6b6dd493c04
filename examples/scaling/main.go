// Scaling walkthrough: step a 32×32 torus — 1024 fault-tolerant
// routers, 4× the paper's evaluation mesh — under tornado traffic, the
// pattern a torus is built for, and show what the scaled-up step loop
// provides: wrap-around links, worker sharding with bit-exact results,
// and a steady-state hot path that does not allocate.
package main

import (
	"fmt"
	"runtime"
	"time"

	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

func main() {
	const w, h = 32, 32
	topo, err := topology.New("torus", w, h, 1)
	if err != nil {
		panic(err)
	}
	nodes := topo.Nodes()

	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	build := func(workers int) *noc.Network {
		// Tornado traffic sends each packet halfway around its row — the
		// adversarial pattern for a mesh (it concentrates load on the
		// center) and the showcase pattern for a torus, whose wrap-around
		// links cut every such route to at most half the ring. A fresh
		// seeded source per network keeps the runs comparable.
		src := traffic.NewSynthetic(nodes, 0.02, traffic.Tornado(topo), traffic.Bimodal(1, 5, 0.6), 42)
		return noc.MustNew(noc.Config{
			Width: w, Height: h, Topo: "torus",
			Router: rc, Warmup: 1000, Workers: workers,
		}, src)
	}

	fmt.Printf("gonoc scaling walkthrough — %dx%d torus (%d routers), tornado traffic\n\n", w, h, nodes)

	// 1. Throughput: time the same 5000-cycle run serially and sharded
	// over the worker pool. On a multi-core machine the parallel run is
	// faster; on any machine the results are bit-exact identical,
	// because compute shards only read last-cycle state and commits
	// apply in canonical node order.
	var serial, parallel *noc.Network
	for _, workers := range []int{1, 4} {
		n := build(workers)
		start := time.Now()
		n.Run(5000)
		elapsed := time.Since(start)
		st := n.Stats()
		fmt.Printf("  workers=%d: %6.0f steps/s (%.2fs), %d packets, avg latency %.2f cycles\n",
			workers, 5000/elapsed.Seconds(), elapsed.Seconds(), st.Ejected(), st.AvgLatency())
		if workers == 1 {
			serial = n
		} else {
			parallel = n
		}
	}
	same := serial.Stats().Ejected() == parallel.Stats().Ejected() &&
		serial.Stats().AvgLatency() == parallel.Stats().AvgLatency()
	fmt.Printf("  serial ≡ parallel: %v (same deliveries, bit-identical latencies)\n\n", same)
	parallel.Close()

	// 2. The zero-alloc steady state: with injection quiet, Step runs
	// entirely inside pre-allocated storage — no garbage at all — so
	// multi-million-cycle campaigns put no pressure on the collector.
	// (TestStepZeroAllocSteadyState pins this to exactly zero on a 64×64
	// mesh; here we just watch the allocation counter stand still.)
	n := serial
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n.Run(500)
	runtime.ReadMemStats(&m1)
	fmt.Printf("  500 more cycles with live traffic: %d bytes allocated (traffic injection only)\n",
		m1.TotalAlloc-m0.TotalAlloc)
	fmt.Printf("  steady-state contract: Step itself allocates 0 objects — pinned by TestStepZeroAllocSteadyState\n")
	n.Close()
}

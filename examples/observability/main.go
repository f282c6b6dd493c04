// Observability walks through the internal/obs layer: a faulty 4×4
// protected mesh is simulated with metrics and tracing enabled, the
// per-router counter table shows where the fault-tolerance mechanisms
// fired, the latency distribution and per-packet hop spans show what
// those mechanisms cost and where, and the captured event trace is
// written as a Chrome trace_event file — open trace.json in
// chrome://tracing or https://ui.perfetto.dev to see each router's
// pipeline activity laid out as per-port timelines.
//
// For the same data live over HTTP while a long run steps, see
// `noctool sim -telemetry addr` (Prometheus /metrics + JSON /status).
package main

import (
	"fmt"
	"log"
	"os"

	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

func main() {
	// One Observer carries both the counter registry and the event
	// tracer; attaching it to the router config instruments every router,
	// link and network interface. A nil Obs (the default) keeps the
	// simulator metrics-free.
	// 262144 events split into one ring per router: each of the 16 keeps
	// its most recent 16384.
	o := obs.New(1 << 18)

	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	cfg := noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 0}
	src := traffic.NewSynthetic(16, 0.04, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 2014)
	n := noc.MustNew(cfg, src)

	// Break router 5 three different ways; each engages a different
	// Section V mechanism, and each shows up under its own counter.
	center := n.Router(5)
	center.SetSA1Fault(topology.East, true)     // → SA bypass + VC transfer
	center.SetVA1Fault(topology.North, 0, true) // → VA arbiter borrowing
	center.SetXBFault(topology.West, true)      // → secondary crossbar path

	// Let the uniform-random injector add more faults as the run goes.
	fault.NewInjector(n, 8000, 7, true)

	n.Run(30_000)

	fmt.Println(obs.FormatPerRouter(o.Metrics, uint64(n.Now())))
	st := n.Stats()
	fmt.Printf("delivered %d/%d packets, avg latency %.1f cycles, functional: %v\n",
		st.Ejected(), st.Created(), st.AvgLatency(), n.Functional())
	// The histogram keeps the whole distribution, not just the mean: the
	// fault-tolerance mechanisms cost tail latency, so the interesting
	// numbers are the percentiles.
	fmt.Printf("latency p50 %.0f  p95 %.0f  p99 %.0f  max %d cycles\n\n",
		st.Percentile(50), st.Percentile(95), st.Percentile(99), st.MaxLatency())

	// Hop spans reconstruct each packet's life from the trace: which hops
	// the slowest packets crossed and which pipeline phase (VA stall, SA
	// wait, crossbar serialization...) ate the cycles.
	fmt.Print(obs.FormatSpans(n.Spans(), 3))
	fmt.Println()

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := o.Tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d events to trace.json (%d emitted, %d overwritten by the rings)\n",
		o.Tracer.Total()-o.Tracer.Dropped(), o.Tracer.Total(), o.Tracer.Dropped())
	fmt.Println("open it in chrome://tracing or https://ui.perfetto.dev")
}

// Package gonoc is a from-scratch Go reproduction of Poluri & Louri,
// "An Improved Router Design for Reliable On-Chip Networks" (IEEE IPDPS
// 2014): a cycle-accurate mesh network-on-chip simulator whose routers
// implement the paper's per-stage fault-tolerance mechanisms, together
// with the paper's complete evaluation — the FORC/TDDB reliability
// framework (Tables I–II, the 6× MTTF improvement), the Silicon
// Protection Factor comparison against BulletProof, Vicis and RoCo
// (Table III), the 45 nm area/power/critical-path model (Section VI) and
// the SPLASH-2/PARSEC fault-injection latency study (Figures 7–8).
//
// # Architecture
//
// The implementation lives under internal/, layered from primitives up
// to experiments. Foundations:
//
//   - sim — the Cycle timestamp type; noc.Network.Step is what advances
//     simulated time.
//   - rng — splittable xoshiro256** streams; every random decision in
//     the repository flows from an explicit seed.
//   - flit — packets, flits and message classes (request/response), with
//     the creation/injection/ejection timestamps the stats layer reads.
//   - topology — the 2-D mesh and the torus, the five router ports
//     (Local, North, East, South, West) and their dimension-order
//     routing (XY on the mesh).
//
// Router building blocks, one package per structural component:
//
//   - arbiter — round-robin arbiters plus the SA bypass wrapper with the
//     rotating default winner (Fig. 5).
//   - vc — virtual-channel state machines carrying the paper's extra
//     fields (R2, VF, ID for VA borrowing; Figs. 3d and 4).
//   - crossbar — the protected crossbar whose SP/FSP-directed secondary
//     paths route around dead muxes (Fig. 6); the baseline router drives
//     its primary paths only.
//   - router — the Config that assembles a core.Router (port/VC counts,
//     depth, classes, the Obs hook, see below) and the link messages.
//
// The router and network:
//
//   - core — the paper's router itself: the four-stage RC→VA→SA→XB
//     pipeline in both baseline and protected modes, with per-stage
//     fault masking (duplicate RC, VA arbiter borrowing, SA bypass with
//     VC transfer, secondary crossbar traversal) and the Functional()
//     failure predicate.
//   - noc — network assembly: routers wired by mesh links, network
//     interfaces injecting and ejecting traffic, per-cycle hooks, and
//     the top-level Network.Step/Run loop.
//
// Traffic flows into the network from:
//
//   - traffic — synthetic patterns (uniform, transpose, bit-complement,
//     tornado, neighbor, hotspot) and trace-driven sources.
//   - workloads — SPLASH-2 / PARSEC coherence-style traffic profiles
//     used by the Figure 7/8 latency study.
//   - tracefile — CSV record/replay of offered packets, so a workload
//     can be captured once and replayed under different fault loads.
//
// Fault modelling and detection:
//
//   - fault — the fault-site enumeration (Sites), permanent and
//     transient injectors, the injection-spec parser used by noctool's
//     -inject flag, and Monte-Carlo faults-to-failure campaigns.
//   - watchdog — online detection: localizes stuck VCs to a suspected
//     pipeline stage, the NoCAlert role of the paper's reference [18].
//
// Measurement and analysis:
//
//   - stats — packet-level latency/throughput collection with a warmup
//     window excluded from measurement.
//   - obs — the observability layer: a per-router/port/VC counter
//     registry and a ring-buffered cycle-accurate event tracer with
//     JSON-Lines and Chrome trace_event sinks. Disabled (nil) by
//     default; when enabled via router.Config.Obs, the core pipeline,
//     NIs, links, injectors and watchdog all report into it.
//   - reliability — FORC/TDDB failure physics, the FIT library behind
//     Tables I–II, the MTTF analysis and the SPF metric.
//   - area — the calibrated 45 nm gate-equivalent area/power model and
//     the Section VI-B critical-path model.
//   - ftrouters — behavioural models of BulletProof, Vicis and RoCo for
//     the Table III comparison.
//   - experiments — every table and figure as a pure function, plus
//     ablation studies; sweep fans independent simulations out across
//     goroutines (the simulator core itself is single-threaded).
//
// # Data flow
//
// A simulation cycle moves data through the layers as:
//
//	traffic/workloads → noc.NI → core.Router pipeline (RC→VA→SA→XB)
//	    → mesh links → ... → destination NI → stats.Collector
//
// while fault.Injector/TransientInjector mutate router fault state via
// network hooks, watchdog.Monitor observes VC progress, and every layer
// reports counters and events into obs when it is attached.
//
// # Entry points
//
//   - cmd/noctool — CLI: regenerates every table and figure (paper,
//     campaign, latency), free-form simulation with live telemetry
//     (sim), instrumented read-outs (observe metrics|spans|heatmap|
//     flightrec|trace), record/replay, ablations, model checking
//     (check), and a -pprof profiling flag.
//   - the checked Examples: internal/noc's Example_oneFaultPerStage (one
//     fault per pipeline stage on a live mesh, the mechanism that took
//     over, the two-fault failure boundary), internal/watchdog's
//     Example_faultLifecycle (transients, accumulation, watchdog
//     localization), internal/fault's ExampleFaultsToFailure (both site universes) and
//     internal/reliability's Example (the ≈6× MTTF).
//
// The benchmarks in bench_test.go regenerate each experiment and include
// obs-enabled/disabled microbenchmarks of the network step; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package gonoc

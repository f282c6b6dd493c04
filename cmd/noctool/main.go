// Command noctool regenerates every table and figure of the paper from
// the gonoc library, and exposes the simulator for free-form use:
//
//	noctool tables            Tables I and II and the MTTF analysis (Eq. 4–7)
//	noctool spf               Table III and the SPF-vs-VC sweep
//	noctool campaign          Monte-Carlo faults-to-failure for all designs
//	noctool area              Section VI-A area/power overheads + VI-B
//	noctool critpath          Section VI-B critical-path analysis only
//	noctool latency           Figures 7 and 8 (SPLASH-2 / PARSEC latency)
//	noctool sim               Free-form simulation with synthetic traffic
//	noctool serve             Long-running simulation with a live telemetry endpoint
//	noctool metrics           Simulate and print per-router obs counters
//	noctool spans             Simulate and print per-packet hop-span breakdowns
//	noctool heatmap           Simulate and render windowed link heatmaps + bottlenecks
//	noctool flightrec         Simulate with the anomaly-triggered flight recorder
//	noctool trace             Simulate and write a cycle-accurate event trace
//	noctool ablation          Design-choice sweeps
//	noctool record / replay   Record and replay offered-traffic traces
//
// The global -pprof flag (before the command) serves net/http/pprof for
// profiling long simulations: noctool -pprof :6060 sim -cycles 10000000.
package main

import (
	"flag"
	"fmt"
	"net"
	_ "net/http/pprof"
	"os"
	"os/signal"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
	"gonoc/internal/tracefile"
	"gonoc/internal/traffic"
	"gonoc/internal/workloads"
)

func main() {
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	flag.Usage = usage
	flag.Parse()
	if *pprofAddr != "" {
		// Bind synchronously so a bad address fails here, before the
		// command runs; the nil handler serves http.DefaultServeMux,
		// where net/http/pprof registers.
		// The pprof listener lives for the whole process; its shutdown
		// handle is intentionally discarded.
		addr, _, err := telemetry.ListenAndServe(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "noctool: pprof server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", addr)
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "tables":
		fmt.Print(experiments.FormatReliability(experiments.Reliability()))
	case "spf":
		err = runSPF(args)
	case "campaign":
		err = runCampaign(args)
	case "area":
		a := experiments.Area()
		fmt.Print(experiments.FormatArea(a))
	case "critpath":
		a := experiments.Area()
		fmt.Print(experiments.FormatCritPath(a))
	case "latency":
		err = runLatency(args)
	case "sim":
		err = runSim(args)
	case "serve":
		err = runServe(args)
	case "metrics":
		err = runMetrics(args)
	case "spans":
		err = runSpans(args)
	case "heatmap":
		err = runHeatmap(args)
	case "flightrec":
		err = runFlightrec(args)
	case "trace":
		err = runTrace(args)
	case "ablation":
		err = runAblation(args)
	case "record":
		err = runRecord(args)
	case "replay":
		err = runReplay(args)
	case "check":
		err = runCheck(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "noctool: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "noctool %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: noctool [-pprof addr] <command> [flags]

commands:
  tables     print Tables I and II and the MTTF analysis (Eq. 4-7)
  spf        print Table III and the SPF-vs-VC sweep
  campaign   Monte-Carlo faults-to-failure campaigns for all designs
  area       print Section VI-A area/power overheads + VI-B critical path
  critpath   print only the Section VI-B critical-path analysis
  latency    run the Figure 7/8 latency study (-suite splash2|parsec|both)
  sim        run a synthetic-traffic simulation (see -h for flags)
  serve      run a (possibly endless) simulation with a live telemetry
             endpoint: Prometheus text on /metrics, JSON on /status
             (-addr :8077; -cycles 0 runs until interrupted)
  metrics    run a simulation and print per-router observability counters
  spans      run a simulation and print per-packet hop spans: the slowest
             packets' latency broken down into queueing, VC-allocation
             stall, switch wait, crossbar and link cycles per hop
  heatmap    run a simulation collecting windowed per-link utilization
             and stall-mix series; prints per-direction ASCII heatmaps
             and a top-N bottleneck report (-json for the raw document)
  flightrec  run a simulation with the bounded flight recorder armed: a
             watchdog suspect dumps the recent event history to a JSON
             Lines file; -replay formats a dump file afterwards
  trace      run a simulation and write a cycle-accurate event trace
             (-format chrome opens in chrome://tracing or ui.perfetto.dev)
  ablation   design-choice sweeps (bypass rotation, VC count, secondary path)
  record     record a workload's offered packets to a trace file
  replay     replay a recorded trace (optionally with faults)
  check      exhaustively model-check a small mesh: prove deadlock
             freedom and full delivery for the fault-free network and
             under every single link/router fault (-w/-h dimensions,
             -budget wall-clock bound, -mc N for sampled mode, -crossval
             for the reliability cross-check)

global flags (before the command):
  -pprof addr   serve net/http/pprof on addr (e.g. -pprof :6060)

The simulation commands accept -topo mesh|torus|cmesh (with -conc for
cmesh concentration) on any -width x -height router grid. Torus links
wrap around; fault injection of whole links/routers works on all three
families (on a torus the fault-aware tables restrict wrap-link
crossings to stay deadlock free, and wrap links are valid link-fault
sites).

sim, serve, metrics, spans and trace accept -inject with comma-separated
fault specs <router>:<kind>[:<port>[:<vc>]], e.g. -inject 5:sa1:e,0:va1:n:2;
kinds are rc, rcdup, va1, va2, sa1, sa1byp, sa2, xb, xbsec and ports
l,n,e,s,w. Two network-level kinds kill whole links or routers: link
(needs a grid direction, e.g. 5:link:e — the link is dead both ways) and
router (no port, e.g. 10:router). Traffic reroutes around network faults
via deadlock-free two-layer turn-model routing; pair with -retx-timeout
(plus -retx-retries / -retx-buffer) to recover lost packets end-to-end
and watch the delivery ratio, reroute and retransmit counters in the
metrics output.

campaign -inject <specs> runs the network-fault delivery campaign (one
scenario per spec plus a fault-free baseline) instead of the Monte-Carlo
faults-to-failure table.

The simulation commands and campaign accept -workers to bound
parallelism: for the simulation commands it shards each cycle's compute
phase across that many goroutines (0 = all cores, 1 = serial) with
bit-identical results; for campaign it runs the designs concurrently.

sim and campaign also accept -telemetry addr to serve live /metrics and
/status for the duration of the run (campaign exports per-design trial
progress gauges); serve is the long-running form of the same endpoint.`)
}

func runSPF(args []string) error {
	fs := flag.NewFlagSet("spf", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Print(experiments.FormatSPF(experiments.SPFTable()))
	fmt.Println()
	fmt.Println("SPF vs virtual channel count (Section VIII-E)")
	for _, r := range experiments.SPFVCSweep([]int{2, 3, 4, 6, 8}) {
		fmt.Printf("  %-26s mean faults %5.1f  SPF %5.2f\n", r.Design, r.MeanFaults, r.SPF)
	}
	return nil
}

func runCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	trials := fs.Int("trials", 5000, "Monte-Carlo trials per design")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "designs campaigned in parallel (0 = all cores)")
	width := fs.Int("width", 0, "grid width for the -inject delivery campaign (0 = the study default)")
	height := fs.Int("height", 0, "grid height for the -inject delivery campaign (0 = the study default)")
	topoFlag := fs.String("topo", "", "topology for the -inject delivery campaign: mesh (default), torus or cmesh")
	conc := fs.Int("conc", 0, "cmesh concentration for the -inject delivery campaign")
	inject := fs.String("inject", "", "comma-separated fault specs (e.g. 5:link:e,10:router): "+
		"run the network-fault delivery campaign over these scenarios instead of the Monte-Carlo table")
	telemetryAddr := fs.String("telemetry", "",
		"serve live per-design trial progress on this address for the duration of the campaign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be >= 1, got %d", *trials)
	}
	var onTrial func(design string, done, total int)
	if *telemetryAddr != "" {
		srv := telemetry.NewServer(nil)
		addr, shutdown, err := telemetry.ListenAndServe(*telemetryAddr, srv.Handler())
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics (status on /status)\n", addr)
		onTrial = srv.SetProgress
	}
	if *inject != "" {
		// Network-fault delivery campaign: one scenario per spec plus the
		// fault-free baseline, each run to drain with retransmission on.
		cfg := experiments.DefaultLinkFaultConfig()
		cfg.Seed = *seed
		cfg.Workers = *workers
		cfg.Topo = *topoFlag
		cfg.Conc = *conc
		if *width > 0 {
			cfg.Width = *width
		}
		if *height > 0 {
			cfg.Height = *height
		}
		scenarios, err := experiments.ScenariosFromSpecs(*inject)
		if err != nil {
			return err
		}
		// ScenariosFromSpecs only checks the grammar; range-check the
		// specs against the campaign's actual grid before any trial runs.
		if err := experiments.ValidateScenarios(cfg, scenarios); err != nil {
			return err
		}
		fmt.Print(experiments.FormatLinkFault(experiments.LinkFaultStudy(cfg, scenarios)))
		return nil
	}
	if *width > 0 || *height > 0 || *topoFlag != "" || *conc > 0 {
		return fmt.Errorf("-width/-height/-topo/-conc only apply to the -inject delivery campaign")
	}
	fmt.Print(experiments.FormatCampaign(experiments.CampaignTableObserved(*trials, *seed, *workers, onTrial)))
	return nil
}

func runLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	suite := fs.String("suite", "both", "splash2, parsec or both")
	seed := fs.Uint64("seed", 2014, "random seed")
	faultMean := fs.Uint64("fault-mean", 20000, "mean cycles between faults per (router, stage), >= 1")
	measure := fs.Uint64("measure", 25000, "measured cycles after warmup, >= 1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite != "splash2" && *suite != "parsec" && *suite != "both" {
		return fmt.Errorf("unknown suite %q (want splash2, parsec or both)", *suite)
	}
	// A window of no cycles measures nothing and an injector with no mean
	// injects nothing: both would print a table of zeros — a figure that
	// says the mechanisms cost nothing — as if it were a result.
	if *measure < 1 {
		return fmt.Errorf("-measure must be >= 1, got %d", *measure)
	}
	if *faultMean < 1 {
		return fmt.Errorf("-fault-mean must be >= 1, got %d (the study compares against a fault-injected run)", *faultMean)
	}
	cfg := experiments.DefaultLatencyConfig()
	cfg.Seed = *seed
	cfg.FaultMean = sim.Cycle(*faultMean)
	cfg.Measure = sim.Cycle(*measure)
	if *suite == "splash2" || *suite == "both" {
		fmt.Print(experiments.FormatSuite(experiments.Figure7(cfg)))
	}
	if *suite == "parsec" || *suite == "both" {
		fmt.Print(experiments.FormatSuite(experiments.Figure8(cfg)))
	}
	return nil
}

// simFlags is the network-setup flag group shared by the sim, metrics
// and trace commands.
type simFlags struct {
	width, height *int
	topo          *string
	conc          *int
	rate          *float64
	pattern       *string
	cycles        *uint64
	warmup        *uint64
	seed          *uint64
	faultMean     *uint64
	baseline      *bool
	inject        *string
	workers       *int
	retxTimeout   *uint64
	retxRetries   *int
	retxBuffer    *int
}

func addSimFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		width:     fs.Int("width", 8, "router grid width"),
		height:    fs.Int("height", 8, "router grid height"),
		topo:      fs.String("topo", "mesh", "topology: mesh, torus or cmesh"),
		conc:      fs.Int("conc", 1, "terminals per router (cmesh concentration)"),
		rate:      fs.Float64("rate", 0.02, "packets per node per cycle"),
		pattern:   fs.String("pattern", "uniform", "uniform, transpose, bitcomp, tornado, neighbor, hotspot"),
		cycles:    fs.Uint64("cycles", 50000, "cycles to simulate (including warmup)"),
		warmup:    fs.Uint64("warmup", 5000, "warmup cycles excluded from statistics"),
		seed:      fs.Uint64("seed", 1, "random seed"),
		faultMean: fs.Uint64("fault-mean", 0, "mean cycles between random faults (0 = none)"),
		baseline:  fs.Bool("baseline", false, "use the unprotected baseline router"),
		inject: fs.String("inject", "", "comma-separated fault specs "+
			"<router>:<kind>[:<port>[:<vc>]] applied at cycle 0 (see noctool help)"),
		workers: fs.Int("workers", 0,
			"worker goroutines sharding each cycle's compute phase (0 = all cores, 1 = serial; results are identical)"),
		retxTimeout: fs.Uint64("retx-timeout", 0,
			"end-to-end retransmission timeout in cycles (0 = retransmission off)"),
		retxRetries: fs.Int("retx-retries", 0,
			"max retransmissions per packet (0 = default 8; needs -retx-timeout)"),
		retxBuffer: fs.Int("retx-buffer", 0,
			"retransmission buffer entries per source NI (0 = default 32; needs -retx-timeout)"),
	}
}

// validate rejects flag values the flag package parses happily but the
// simulator would otherwise mangle silently: negative retransmission
// knobs (Int flags accept "-1", and RetxConfig's zero-value defaulting
// would quietly replace it) and retransmission knobs that are dead
// because -retx-timeout is off. Each violation is a one-line usage
// error; the commands exit non-zero on it.
func (sf *simFlags) validate() error {
	if *sf.retxRetries < 0 {
		return fmt.Errorf("-retx-retries must be >= 0, got %d", *sf.retxRetries)
	}
	if *sf.retxBuffer < 0 {
		return fmt.Errorf("-retx-buffer must be >= 0, got %d", *sf.retxBuffer)
	}
	if *sf.retxTimeout == 0 && (*sf.retxRetries > 0 || *sf.retxBuffer > 0) {
		return fmt.Errorf("-retx-retries/-retx-buffer need -retx-timeout > 0 (retransmission is off)")
	}
	if *sf.rate < 0 || *sf.rate > 1 {
		return fmt.Errorf("-rate must be in [0, 1], got %g", *sf.rate)
	}
	return nil
}

// requireMeasuredWindow rejects a run whose warmup leaves no cycle to
// measure, for the commands that print latency and throughput: they
// would report zeros as if they were results.
func (sf *simFlags) requireMeasuredWindow() error {
	if *sf.cycles <= *sf.warmup {
		return fmt.Errorf("-cycles (%d) must exceed -warmup (%d): no cycle would be measured", *sf.cycles, *sf.warmup)
	}
	return nil
}

// build constructs the network, applies any -inject faults at cycle 0 and
// attaches the random injector when -fault-mean is set. o may be nil for
// an uninstrumented run.
func (sf *simFlags) build(o *obs.Observer) (*noc.Network, error) {
	if err := sf.validate(); err != nil {
		return nil, err
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = !*sf.baseline
	rc.Obs = o
	topo, err := topology.New(*sf.topo, *sf.width, *sf.height, *sf.conc)
	if err != nil {
		return nil, err
	}
	var dest traffic.DestFn
	switch *sf.pattern {
	case "uniform":
		dest = traffic.Uniform(topo.Nodes())
	case "transpose":
		dest = traffic.Transpose(topo)
	case "bitcomp":
		dest = traffic.BitComplement(topo)
	case "tornado":
		dest = traffic.Tornado(topo)
	case "neighbor":
		dest = traffic.Neighbor(topo)
	case "hotspot":
		dest = traffic.Hotspot(topo.Nodes(), []int{0, topo.Nodes() - 1}, 0.3)
	default:
		return nil, fmt.Errorf("unknown pattern %q", *sf.pattern)
	}
	src := traffic.NewSynthetic(topo.Nodes(), *sf.rate, dest, traffic.Bimodal(1, 5, 0.6), *sf.seed)
	n, err := noc.New(noc.Config{
		Width: *sf.width, Height: *sf.height, Topo: *sf.topo, Conc: *sf.conc,
		Router: rc, Warmup: sim.Cycle(*sf.warmup),
		Workers: *sf.workers,
		Retx: noc.RetxConfig{
			Timeout:    sim.Cycle(*sf.retxTimeout),
			MaxRetries: *sf.retxRetries,
			Buffer:     *sf.retxBuffer,
		},
	}, src)
	if err != nil {
		return nil, err
	}
	routers, sites, err := fault.ParseInjections(*sf.inject)
	if err != nil {
		return nil, err
	}
	for i, r := range routers {
		if r >= topo.Nodes() {
			return nil, fmt.Errorf("fault spec router %d outside the %d-node %s", r, topo.Nodes(), topo.Kind())
		}
		if err := fault.ApplyNetwork(n, r, sites[i], true); err != nil {
			return nil, err
		}
		o.RecordFault(obs.KFaultsInjected, obs.EvFaultInject, 0, r,
			int(sites[i].Port), sites[i].Index, int32(sites[i].Kind.Stage()), sites[i].String())
	}
	if *sf.faultMean > 0 {
		fault.NewInjector(n, sim.Cycle(*sf.faultMean), *sf.seed^0xabcdef, true)
	}
	return n, nil
}

// recorders selects what observer attaches beside the counter registry.
type recorders struct {
	windows      bool
	bucketCycles sim.Cycle // windows: <= 0 selects the default
	buckets      int       // windows: < 2 selects the default
	flight       bool
	flightEvents int // flight: <= 0 selects the default
}

// observer returns the observer of the counters-only commands: the
// counter registry and no trace ring, plus the windowed utilization ring
// and/or the flight recorder sized for the flag group's grid.
func (sf *simFlags) observer(rec recorders) (*obs.Observer, error) {
	o := obs.New(0)
	if !rec.windows && !rec.flight {
		return o, nil
	}
	topo, err := topology.New(*sf.topo, *sf.width, *sf.height, *sf.conc)
	if err != nil {
		return nil, err
	}
	if rec.windows {
		rc := router.DefaultConfig()
		o.Windows = obs.NewWindows(topo.Nodes(), rc.Ports, rc.VCs, rec.bucketCycles, rec.buckets)
	}
	if rec.flight {
		o.Flight = obs.NewFlightRecorder(topo.Nodes(), rec.flightEvents)
	}
	return o, nil
}

// runTraced builds the network with an events-deep trace and runs
// it for -cycles, tracing only the measured window: the -warmup cycles
// run with the tracer paused (warmup packets are excluded from the
// latency statistics anyway). lost says what the output will lack when
// the warmup swallows the whole run. The caller closes the network.
func (sf *simFlags) runTraced(cmd string, events int, lost string) (*noc.Network, *obs.Observer, error) {
	if events < 1 {
		return nil, nil, fmt.Errorf("-events must be >= 1, got %d", events)
	}
	o := obs.New(events)
	n, err := sf.build(o)
	if err != nil {
		return nil, nil, err
	}
	warm := sim.Cycle(*sf.warmup)
	total := sim.Cycle(*sf.cycles)
	if warm >= total {
		fmt.Fprintf(os.Stderr, "noctool %s: warmup (%d) covers the whole run (%d cycles); "+
			"%s — lower -warmup or raise -cycles\n", cmd, warm, total, lost)
		warm = total
	}
	if warm > 0 {
		o.Tracer.SetEnabled(false)
		n.Run(warm)
		o.Tracer.SetEnabled(true)
	}
	n.Run(total - warm)
	return n, o, nil
}

func runSim(args []string) error { return runSimReady(args, nil) }

// runSimReady is runSim with a test hook: when -telemetry is set, onReady
// (if non-nil) receives the bound address before the simulation starts.
func runSimReady(args []string, onReady func(net.Addr)) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	sf := addSimFlags(fs)
	heatmap := fs.Bool("heatmap", false, "print a router-load heatmap at the end")
	telemetryAddr := fs.String("telemetry", "",
		"serve live /metrics and /status on this address during the run (e.g. :8077)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sf.requireMeasuredWindow(); err != nil {
		return err
	}
	// With telemetry on, the run is instrumented: counters plus the
	// windowed link-utilization ring backing /heatmap.
	var o *obs.Observer
	if *telemetryAddr != "" {
		var err error
		if o, err = sf.observer(recorders{windows: true}); err != nil {
			return err
		}
	}
	n, err := sf.build(o)
	if err != nil {
		return err
	}
	defer n.Close()
	var flush func()
	if *telemetryAddr != "" {
		srv := telemetry.NewServer(o.Metrics)
		flush = telemetry.Attach(srv, n, 0)
		// The endpoint outlives the run on purpose: the final snapshot
		// stays scrapeable until the process exits, so a dashboard (or
		// TestSimTelemetryScrape) can read the end state after Run returns.
		addr, _, err := telemetry.ListenAndServe(*telemetryAddr, srv.Handler())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics (status on /status)\n", addr)
		if onReady != nil {
			onReady(addr)
		}
	}
	n.Run(sim.Cycle(*sf.cycles))
	st := n.Stats()
	if flush != nil {
		// Publish the final (usually partial) interval: the run length is
		// rarely a multiple of the snapshot period.
		flush()
	}
	nodes := n.Topo().Nodes()
	fmt.Printf("cycles:        %d\n", n.Now())
	fmt.Printf("packets:       %d created, %d delivered, %d in flight\n",
		st.Created(), st.Ejected(), st.InFlight())
	if st.Dropped()+st.Retransmits()+st.Duplicates() > 0 {
		fmt.Printf("reliability:   delivery ratio %.4f (%d dropped, %d retransmitted, %d duplicates suppressed)\n",
			st.DeliveryRatio(), st.Dropped(), st.Retransmits(), st.Duplicates())
	}
	fmt.Printf("avg latency:   %.2f cycles (network %.2f)\n", st.AvgLatency(), st.AvgNetworkLatency())
	fmt.Printf("p50/p95/p99:   %.0f / %.0f / %.0f cycles\n",
		st.Percentile(50), st.Percentile(95), st.Percentile(99))
	fmt.Printf("throughput:    %.4f flits/node/cycle\n",
		st.ThroughputFlits(n.Now())/float64(nodes))
	fmt.Printf("functional:    %v\n", n.Functional())
	if *heatmap {
		fmt.Print(n.Heatmap())
	}
	return nil
}

// runServe runs serveSim until the run completes or the process is
// interrupted (SIGINT ends the simulation gracefully and prints the
// final summary).
func runServe(args []string) error {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		<-sig
		close(stop)
	}()
	return serveSim(args, nil, stop)
}

// serveSim is the testable core of the serve command: a simulation that
// exposes live telemetry while it runs. onReady (optional) receives the
// bound address before the first cycle; closing stop ends the run at the
// next chunk boundary. -cycles 0 runs until stopped.
func serveSim(args []string, onReady func(net.Addr), stop <-chan struct{}) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	sf := addSimFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8077", "telemetry listen address (/metrics and /status)")
	interval := fs.Uint64("interval", 0, "cycles between stats snapshots (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sf.cycles != 0 { // 0 runs until stopped
		if err := sf.requireMeasuredWindow(); err != nil {
			return err
		}
	}
	o, err := sf.observer(recorders{windows: true})
	if err != nil {
		return err
	}
	n, err := sf.build(o)
	if err != nil {
		return err
	}
	defer n.Close()
	srv := telemetry.NewServer(o.Metrics)
	flush := telemetry.Attach(srv, n, sim.Cycle(*interval))
	bound, shutdown, err := telemetry.ListenAndServe(*addr, srv.Handler())
	if err != nil {
		return err
	}
	// Graceful teardown on every exit path (including SIGINT): in-flight
	// scrapes finish and the port is released before the process exits.
	defer shutdown()
	fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics (status on /status)\n", bound)
	if onReady != nil {
		onReady(bound)
	}
	// Step in chunks so a stop request is honoured promptly even on an
	// endless (-cycles 0) run.
	const chunk = 1 << 10
	total := sim.Cycle(*sf.cycles)
	for stopped := false; !stopped && (total == 0 || n.Now() < total); {
		step := sim.Cycle(chunk)
		if total > 0 && total-n.Now() < step {
			step = total - n.Now()
		}
		n.Run(step)
		select {
		case <-stop:
			stopped = true
		default:
		}
	}
	// Publish the final (usually partial) interval before reporting.
	flush()
	st := n.Stats()
	fmt.Printf("stopped at cycle %d: %d packets delivered, avg latency %.2f cycles "+
		"(p50 %.0f, p95 %.0f, p99 %.0f)\n",
		n.Now(), st.Ejected(), st.AvgLatency(),
		st.Percentile(50), st.Percentile(95), st.Percentile(99))
	return nil
}

// runSpans runs an instrumented simulation and prints the per-packet
// hop-span report: where the slowest packets spent their cycles, hop by
// hop and pipeline phase by pipeline phase.
func runSpans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	sf := addSimFlags(fs)
	events := fs.Int("events", 1<<20, "trace capacity, split evenly into one ring per router; spans are built from retained events")
	top := fs.Int("top", 5, "how many of the slowest packets to detail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, _, err := sf.runTraced("spans", *events, "no spans will be complete")
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Print(obs.FormatSpans(n.Spans(), *top))
	return nil
}

// runMetrics runs an instrumented simulation and prints the per-router
// observability counters.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	sf := addSimFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sf.requireMeasuredWindow(); err != nil {
		return err
	}
	o, err := sf.observer(recorders{})
	if err != nil {
		return err
	}
	n, err := sf.build(o)
	if err != nil {
		return err
	}
	defer n.Close()
	n.Run(sim.Cycle(*sf.cycles))
	st := n.Stats()
	fmt.Print(obs.FormatPerRouter(o.Metrics, uint64(n.Now())))
	fmt.Printf("\npackets:    %d created, %d delivered, %d in flight\n",
		st.Created(), st.Ejected(), st.InFlight())
	fmt.Printf("delivery:   ratio %.4f (%d dropped, %d retransmitted, %d duplicates suppressed)\n",
		st.DeliveryRatio(), st.Dropped(), st.Retransmits(), st.Duplicates())
	fmt.Printf("latency:    avg %.2f cycles, p95 %.0f\n", st.AvgLatency(), st.Percentile(95))
	fmt.Printf("functional: %v\n", n.Functional())
	return nil
}

// runTrace runs an instrumented simulation and writes the captured event
// trace to a file.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	sf := addSimFlags(fs)
	out := fs.String("o", "trace.json", "output file")
	format := fs.String("format", "chrome", "chrome (trace_event JSON) or jsonl (JSON Lines)")
	events := fs.Int("events", 1<<20, "trace capacity, split evenly into one ring per router: each router's most recent events are retained")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "chrome" && *format != "jsonl" {
		return fmt.Errorf("unknown format %q (want chrome or jsonl)", *format)
	}
	n, o, err := sf.runTraced("trace", *events, "pipeline events will be missing")
	if err != nil {
		return err
	}
	defer n.Close()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if *format == "chrome" {
		err = o.Tracer.WriteChromeTrace(f)
	} else {
		err = o.Tracer.WriteJSONL(f)
	}
	if err != nil {
		return err
	}
	retained := o.Tracer.Total() - o.Tracer.Dropped()
	fmt.Printf("wrote %d events to %s (%s format; %d emitted, %d dropped by ring wrap)\n",
		retained, *out, *format, o.Tracer.Total(), o.Tracer.Dropped())
	return nil
}

// runRecord records the offered packets of a workload to a trace file.
func runRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("o", "trace.csv", "output trace file")
	app := fs.String("app", "fft", "workload application name (any SPLASH-2/PARSEC app)")
	cycles := fs.Uint64("cycles", 20000, "cycles to record")
	seed := fs.Uint64("seed", 1, "random seed")
	width := fs.Int("width", 8, "grid width")
	height := fs.Int("height", 8, "grid height")
	topoFlag := fs.String("topo", "mesh", "topology: mesh, torus or cmesh")
	conc := fs.Int("conc", 0, "cmesh concentration (terminals per router)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, err := findApp(*app)
	if err != nil {
		return err
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	tp, err := topology.New(*topoFlag, *width, *height, *conc)
	if err != nil {
		return err
	}
	src := workloads.NewCoherence(prof, tp, *seed)
	rec := tracefile.NewRecorder(src)
	n, err := noc.New(noc.Config{Width: *width, Height: *height, Topo: *topoFlag, Conc: *conc, Router: rc}, rec)
	if err != nil {
		return err
	}
	defer n.Close()
	n.Run(sim.Cycle(*cycles))
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tracefile.Write(f, rec.Entries()); err != nil {
		return err
	}
	fmt.Printf("recorded %d packets over %d cycles to %s\n", len(rec.Entries()), *cycles, *out)
	return nil
}

// runReplay replays a recorded trace, optionally with fault injection.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("i", "trace.csv", "input trace file")
	faultMean := fs.Uint64("fault-mean", 0, "mean cycles between faults (0 = fault-free)")
	limit := fs.Uint64("limit", 500000, "drain cycle limit")
	seed := fs.Uint64("seed", 1, "random seed for fault injection")
	width := fs.Int("width", 8, "mesh width (must match the recording)")
	height := fs.Int("height", 8, "mesh height (must match the recording)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := tracefile.Read(f)
	if err != nil {
		return err
	}
	// A trace recorded on a larger grid names nodes this one lacks;
	// replaying one would index past the mesh inside a worker goroutine.
	tp, err := topology.New("mesh", *width, *height, 0)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Src >= tp.Nodes() || e.Dst >= tp.Nodes() {
			return fmt.Errorf("%s: packet %d->%d at cycle %d is outside the %dx%d mesh "+
				"(-width/-height must match the recording)", *in, e.Src, e.Dst, e.Cycle, *width, *height)
		}
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	n, err := noc.New(noc.Config{Width: *width, Height: *height, Router: rc}, traffic.NewTrace(entries))
	if err != nil {
		return err
	}
	defer n.Close()
	if *faultMean > 0 {
		fault.NewInjector(n, sim.Cycle(*faultMean), *seed, true)
	}
	// Run past the trace horizon first, then drain the tail.
	var horizon sim.Cycle
	for _, e := range entries {
		if e.Cycle > horizon {
			horizon = e.Cycle
		}
	}
	n.Run(horizon + 1)
	if !n.Drain(sim.Cycle(*limit)) {
		return fmt.Errorf("replay did not drain: %d packets in flight", n.Stats().InFlight())
	}
	st := n.Stats()
	fmt.Printf("replayed %d packets, avg latency %.2f cycles (p95 %.0f)\n",
		st.Ejected(), st.AvgLatency(), st.Percentile(95))
	return nil
}

// findApp looks a profile up by name across both suites.
func findApp(name string) (workloads.App, error) {
	for _, a := range append(workloads.SPLASH2(), workloads.PARSEC()...) {
		if a.Name == name {
			return a, nil
		}
	}
	return workloads.App{}, fmt.Errorf("unknown application %q", name)
}

// runAblation prints the design-choice ablation studies.
func runAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ContinueOnError)
	cycles := fs.Uint64("cycles", 20000, "cycles per configuration")
	seed := fs.Uint64("seed", 3, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cyc := sim.Cycle(*cycles)
	fmt.Println("bypass default-winner rotation period (SA1 faults on E/W everywhere)")
	for _, p := range experiments.AblationRotatePeriod([]int{1, 4, 16, 64, 256}, cyc, *seed) {
		fmt.Printf("  period %4d: avg latency %6.2f cycles, %d packets\n", p.Param, p.AvgLatency, p.Delivered)
	}
	fmt.Println("virtual channels per port (fault-free)")
	for _, p := range experiments.AblationVCCount([]int{1, 2, 4, 8}, cyc, *seed) {
		fmt.Printf("  %d VCs:       avg latency %6.2f cycles, %d packets\n", p.Param, p.AvgLatency, p.Delivered)
	}
	fmt.Println("crossbar secondary path (East mux faulty everywhere)")
	res := experiments.AblationSecondaryPath(cyc, *seed)
	fmt.Printf("  protected: %d packets delivered at %.2f cycles avg\n", res.ProtectedDelivered, res.ProtectedLatency)
	fmt.Printf("  baseline:  %d delivered, %d wedged in-network\n", res.BaselineDelivered, res.BaselineStuck)
	return nil
}

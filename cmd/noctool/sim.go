package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"

	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// simFlags is the network-setup flag group of sim and every observe view.
type simFlags struct {
	width, height *int
	topo          *string
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
		topo:      fs.String("topo", "mesh", "topology: mesh or torus"),
		rate:      fs.Float64("rate", 0.02, "packets per node per cycle"),
		pattern:   fs.String("pattern", "uniform", "uniform, transpose, bitcomp, tornado, neighbor, hotspot"),
		cycles:    fs.Uint64("cycles", 50000, "cycles to simulate (including warmup)"),
		warmup:    fs.Uint64("warmup", 5000, "warmup cycles excluded from statistics"),
		seed:      fs.Uint64("seed", 1, "random seed"),
		faultMean: fs.Uint64("fault-mean", 0, "mean cycles between random faults (0 = none)"),
		baseline:  fs.Bool("baseline", false, "use the unprotected baseline router"),
		inject: fs.String("inject", "", "comma-separated fault specs <router>:<kind>[:<port>[:<vc>]] applied at cycle 0, "+
			"e.g. 5:sa1:e,0:va1:n:2. Pipeline kinds: rc, rcdup, va1, va2, sa1, sa1byp, sa2, xb, xbsec "+
			"(ports l, n, e, s, w or a number); network kinds: link (dead both ways, e.g. 5:link:e) "+
			"and router (e.g. 10:router), which traffic reroutes around (-retx-timeout recovers lost packets)"),
		workers: fs.Int("workers", 0,
			"worker goroutines sharding each cycle's compute phase (0 = all cores, 1 = serial; results are identical)"),
		retxTimeout: fs.Uint64("retx-timeout", 0,
			"end-to-end retransmission timeout in cycles (0 = retransmission off)"),
		retxRetries: fs.Int("retx-retries", 0,
			"max retransmissions per packet (0 = default 8; needs -retx-timeout)"),
		retxBuffer: fs.Int("retx-buffer", 0,
			"retransmission timers running at once per source NI (0 = default 32; needs -retx-timeout)"),
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
	if !(*sf.rate >= 0 && *sf.rate <= 1) { // NaN too
		return fmt.Errorf("-rate must be in [0, 1], got %g", *sf.rate)
	}
	return checkFaultMean(*sf.faultMean)
}

// checkFaultMean rejects a -fault-mean the injector would refuse: its
// doubled draw bound, or the next injection cycle, would wrap.
func checkFaultMean(mean uint64) error {
	if mean > uint64(fault.MaxMean) {
		return fmt.Errorf("-fault-mean must be <= %d (2^62), got %d", uint64(fault.MaxMean), mean)
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

// patterns are the -pattern destination functions by name.
var patterns = map[string]func(topology.Topology) traffic.DestFn{
	"uniform":   func(t topology.Topology) traffic.DestFn { return traffic.Uniform(t.Nodes()) },
	"transpose": traffic.Transpose,
	"bitcomp":   traffic.BitComplement,
	"tornado":   traffic.Tornado,
	"neighbor":  traffic.Neighbor,
	"hotspot": func(t topology.Topology) traffic.DestFn {
		return traffic.Hotspot(t.Nodes(), []int{0, t.Nodes() - 1}, 0.3)
	},
}

// build constructs the network, applies any -inject faults at cycle 0 and
// attaches the random injector when -fault-mean is set. newObs, if
// non-nil, makes the run's observer for the grid's node count; a nil
// newObs builds an uninstrumented run and returns a nil observer.
func (sf *simFlags) build(newObs func(nodes int) (*obs.Observer, error)) (*noc.Network, *obs.Observer, error) {
	if err := sf.validate(); err != nil {
		return nil, nil, err
	}
	topo, err := topology.New(*sf.topo, *sf.width, *sf.height)
	if err != nil {
		return nil, nil, err
	}
	// The pattern constructors panic on a grid they cannot serve, and the
	// traffic is built before noc.New checks the grid.
	pattern, ok := patterns[*sf.pattern]
	if w, h := topo.Dims(); !ok {
		return nil, nil, fmt.Errorf("unknown pattern %q", *sf.pattern)
	} else if topo.Nodes() < 2 {
		return nil, nil, fmt.Errorf("a %dx%d %s has one node: synthetic traffic needs >= 2", w, h, topo.Kind())
	} else if *sf.pattern == "transpose" && w != h {
		return nil, nil, fmt.Errorf("-pattern transpose needs a square grid, got %dx%d", w, h)
	}
	var o *obs.Observer
	if newObs != nil {
		if o, err = newObs(topo.Nodes()); err != nil {
			return nil, nil, err
		}
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = !*sf.baseline
	rc.Obs = o
	src := traffic.NewSynthetic(topo.Nodes(), *sf.rate, pattern(topo), traffic.Bimodal(1, 5, 0.6), *sf.seed)
	n, err := noc.New(noc.Config{
		Width: *sf.width, Height: *sf.height, Topo: *sf.topo,
		Router: rc, Warmup: sim.Cycle(*sf.warmup),
		Workers: *sf.workers,
		Retx: noc.RetxConfig{
			Timeout:    sim.Cycle(*sf.retxTimeout),
			MaxRetries: *sf.retxRetries,
			Buffer:     *sf.retxBuffer,
		},
	}, src)
	if err != nil {
		return nil, nil, err
	}
	routers, sites, err := fault.ParseInjections(*sf.inject)
	if err != nil {
		return nil, nil, err
	}
	for i, r := range routers {
		if r >= topo.Nodes() {
			return nil, nil, fmt.Errorf("fault spec router %d outside the %d-node %s", r, topo.Nodes(), topo.Kind())
		}
		if err := fault.ApplyNetwork(n, r, sites[i], true); err != nil {
			return nil, nil, err
		}
		o.RecordFault(obs.KFaultsInjected, obs.EvFaultInject, 0, r,
			int(sites[i].Port), sites[i].VC(), int32(sites[i].Kind.Stage()), sites[i].String())
	}
	if *sf.faultMean > 0 {
		fault.NewInjector(n, sim.Cycle(*sf.faultMean), *sf.seed^0xabcdef, true)
	}
	return n, o, nil
}

// traced makes an observer with the counter registry and an events-deep
// trace ring split into one ring per router (0: no ring).
func traced(events int) func(int) (*obs.Observer, error) {
	return func(int) (*obs.Observer, error) { return obs.New(events), nil }
}

// windowed makes an observer with the counter registry and the windowed
// link-utilization ring: buckets windows of bucket cycles each.
func windowed(bucket sim.Cycle, buckets int) func(int) (*obs.Observer, error) {
	return func(nodes int) (*obs.Observer, error) {
		rc := router.DefaultConfig()
		if bucket < 1 {
			return nil, fmt.Errorf("-bucket must be >= 1, got %d", bucket)
		}
		err := ringFlag("windows", buckets, 2, float64(buckets)*float64(nodes*rc.Ports*(rc.VCs+obs.NumStallKinds)*4),
			fmt.Sprintf("%d windows × %d nodes × %d ports × (%d VCs + %d stall kinds) × 4 B",
				buckets, nodes, rc.Ports, rc.VCs, obs.NumStallKinds))
		if err != nil {
			return nil, err
		}
		o := obs.New(0)
		o.Windows = obs.NewWindows(nodes, rc.Ports, rc.VCs, bucket, buckets)
		return o, nil
	}
}

// maxRingBytes caps the memory one ring-size flag may ask for.
const maxRingBytes = 1 << 30

// ringFlag rejects a ring-size flag set below its minimum, or one whose
// ring would take more than maxRingBytes. bytes is the ring's size and
// formula how it was counted; the error names both.
func ringFlag(name string, v, min int, bytes float64, formula string) error {
	if v < min {
		return fmt.Errorf("-%s must be >= %d, got %d", name, min, v)
	}
	if bytes > maxRingBytes {
		return fmt.Errorf("-%s %d asks for %.0f B of ring slots (%s), above the 1 GiB limit", name, v, bytes, formula)
	}
	return nil
}

// runSim runs simulate until the run completes or the process is
// interrupted: SIGINT ends the run at the next chunk boundary, and the
// summary is printed either way. The telemetry endpoint, if any, shuts
// down gracefully after the summary, on every exit path.
func runSim(args []string) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	shutdown, err := simulate(args, nil, ctx.Done())
	shutdown()
	return err
}

// simulate is the sim command's testable core. With -telemetry it serves
// /metrics, /status and /heatmap while the run steps, and onReady (if
// non-nil) receives the bound address before the first cycle. Closing
// stop ends the run at the next chunk boundary; -cycles 0 runs until
// then. The returned shutdown (never nil) stops the endpoint; until it
// is called the final snapshot stays scrapeable.
func simulate(args []string, onReady func(net.Addr), stop <-chan struct{}) (shutdown func(), err error) {
	shutdown = func() {}
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	sf := addSimFlags(fs)
	heatmap := fs.Bool("heatmap", false, "print a router-load heatmap at the end")
	addr := fs.String("telemetry", "",
		"serve live /metrics, /status and /heatmap on this address during the run (e.g. :8077)")
	interval := fs.Uint64("interval", 0, "cycles between telemetry stats snapshots (0 = default; needs -telemetry)")
	if err := parse(fs, args); err != nil {
		return shutdown, err
	}
	switch {
	case *addr == "" && *sf.cycles == 0:
		return shutdown, fmt.Errorf("-cycles 0 runs until interrupted and needs -telemetry")
	case *addr == "" && *interval != 0:
		return shutdown, fmt.Errorf("-interval needs -telemetry")
	case *sf.cycles != 0:
		if err := sf.requireMeasuredWindow(); err != nil {
			return shutdown, err
		}
	}
	// With telemetry on, the run is instrumented: counters plus the
	// windowed link-utilization ring backing /heatmap. -heatmap alone
	// needs only the counters it draws from.
	var newObs func(int) (*obs.Observer, error)
	switch {
	case *addr != "":
		newObs = windowed(obs.DefaultBucketCycles, obs.DefaultWindowBucket)
	case *heatmap:
		newObs = traced(0)
	}
	n, o, err := sf.build(newObs)
	if err != nil {
		return shutdown, err
	}
	defer n.Close()
	flush := func() {}
	if *addr != "" {
		srv := telemetry.NewServer(o.Metrics)
		flush = telemetry.Attach(srv, n, sim.Cycle(*interval))
		bound, stopServer, err := telemetry.ListenAndServe(*addr, srv.Handler())
		if err != nil {
			return shutdown, err
		}
		shutdown = stopServer
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics (status on /status)\n", bound)
		if onReady != nil {
			onReady(bound)
		}
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
	// Publish the final (usually partial) interval: the run length is
	// rarely a multiple of the snapshot period.
	flush()
	st := n.Stats()
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
	return shutdown, nil
}

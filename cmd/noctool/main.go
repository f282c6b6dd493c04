// Noctool regenerates every table and figure of the paper from the gonoc
// library, and exposes the simulator for free-form use. Its commands are
// the rows of one table, which `noctool help` prints:
//
//	paper     print every analytic table: Tables I-III, Eq. 4-7, SPF vs VCs, VI-A, VI-B
//	campaign  Monte-Carlo faults-to-failure campaigns (-inject: the delivery campaign)
//	latency   Figures 7 and 8: latency under fault injection (-suite splash2|parsec|both)
//	sim       synthetic-traffic simulation (-telemetry addr: live /metrics and /status)
//	observe   instrumented simulation read out as a view: metrics|spans|heatmap|flightrec|trace
//	ablation  design-choice sweeps: bypass rotation, VC count, secondary crossbar path
//	record    record a workload's offered packets to a trace file
//	replay    replay a recorded trace, optionally under fault injection
//	check     model-check a small mesh: deadlock freedom and delivery under single faults
//
// The global -pprof flag (before the command) serves net/http/pprof for
// profiling long simulations: noctool -pprof :6060 sim -cycles 10000000.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	_ "net/http/pprof"
	"os"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
	"gonoc/internal/tracefile"
	"gonoc/internal/traffic"
	"gonoc/internal/workloads"
)

// command is one row of the CLI: dispatch, `noctool help` and the
// package doc all read this table.
type command struct {
	name, summary string
	run           func(args []string) error
}

var commands = []command{
	{"paper", "print every analytic table: Tables I-III, Eq. 4-7, SPF vs VCs, VI-A, VI-B", runPaper},
	{"campaign", "Monte-Carlo faults-to-failure campaigns (-inject: the delivery campaign)", runCampaign},
	{"latency", "Figures 7 and 8: latency under fault injection (-suite splash2|parsec|both)", runLatency},
	{"sim", "synthetic-traffic simulation (-telemetry addr: live /metrics and /status)", runSim},
	{"observe", "instrumented simulation read out as a view: " + viewNames("|"), runObserve},
	{"ablation", "design-choice sweeps: bypass rotation, VC count, secondary crossbar path", runAblation},
	{"record", "record a workload's offered packets to a trace file", runRecord},
	{"replay", "replay a recorded trace, optionally under fault injection", runReplay},
	{"check", "model-check a small mesh: deadlock freedom and delivery under single faults", runCheck},
}

func main() {
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	flag.Usage = func() { usage(os.Stderr) }
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
	os.Exit(dispatch(flag.Args()))
}

// dispatch runs the command args names and returns the exit code: 0 on
// success or -h, 1 when the command fails, 2 for a missing or unknown
// command.
func dispatch(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	name := args[0]
	if name == "help" || name == "-h" || name == "--help" {
		usage(os.Stdout)
		return 0
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		if err := c.run(args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "noctool %s: %v\n", name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "noctool: unknown command %q\n", name)
	usage(os.Stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: noctool [-pprof addr] <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprint(w, "\nEvery command takes -h for its flags; observe takes its view first\n"+
		"(noctool observe trace -h). The global -pprof addr, before the command,\n"+
		"serves net/http/pprof on addr (e.g. -pprof :6060).\n")
}

// parse parses a command's flags; a stray argument is an error, like an
// unknown flag. A lone -h asks for help, even of check, whose -h is the
// grid height.
func parse(fs *flag.FlagSet, args []string) error {
	if len(args) == 1 && args[0] == "-h" {
		args = []string{"-help"}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// runPaper prints the paper's analytic results in one document: Tables
// I and II with the MTTF analysis (Eq. 4-7), Table III with the SPF-vs-VC
// sweep, then the Section VI-A overheads and the VI-B critical path.
func runPaper(args []string) error {
	if err := parse(flag.NewFlagSet("paper", flag.ContinueOnError), args); err != nil {
		return err
	}
	fmt.Print(experiments.FormatReliability(experiments.Reliability()))
	fmt.Println()
	fmt.Print(experiments.FormatSPF(experiments.SPFTable()))
	fmt.Println()
	fmt.Println("SPF vs virtual channel count (Section VIII-E)")
	for _, r := range experiments.SPFVCSweep([]int{2, 3, 4, 6, 8}) {
		fmt.Printf("  %-26s mean faults %5.1f  SPF %5.2f\n", r.Design, r.MeanFaults, r.SPF)
	}
	fmt.Println()
	fmt.Print(experiments.FormatArea(experiments.Area()))
	return nil
}

func runCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	trials := fs.Int("trials", 5000, "Monte-Carlo trials per design")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "designs campaigned in parallel (0 = all cores)")
	width := fs.Int("width", 0, "grid width for the -inject delivery campaign (0 = the study default)")
	height := fs.Int("height", 0, "grid height for the -inject delivery campaign (0 = the study default)")
	topoFlag := fs.String("topo", "", "topology for the -inject delivery campaign: mesh (default) or torus")
	inject := fs.String("inject", "", "comma-separated fault specs (e.g. 5:link:e,10:router): "+
		"run the network-fault delivery campaign over these scenarios instead of the Monte-Carlo table")
	telemetryAddr := fs.String("telemetry", "",
		"serve live per-design trial progress on this address for the duration of the campaign")
	if err := parse(fs, args); err != nil {
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
		// The study's workers build with noc.MustNew: build the grid once
		// here so a grid noc.New refuses is an error, not a worker panic.
		n, err := noc.New(noc.Config{Width: cfg.Width, Height: cfg.Height, Topo: cfg.Topo,
			Router: router.DefaultConfig()}, nil)
		if err != nil {
			return err
		}
		n.Close()
		fmt.Print(experiments.FormatLinkFault(experiments.LinkFaultStudy(cfg, scenarios)))
		return nil
	}
	if *width > 0 || *height > 0 || *topoFlag != "" {
		return fmt.Errorf("-width/-height/-topo only apply to the -inject delivery campaign")
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
	if err := parse(fs, args); err != nil {
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
	if err := checkFaultMean(*faultMean); err != nil {
		return err
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

// runRecord records the offered packets of a workload to a trace file.
func runRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("o", "trace.csv", "output trace file")
	app := fs.String("app", "fft", "workload application name (any SPLASH-2/PARSEC app)")
	cycles := fs.Uint64("cycles", 20000, "cycles to record")
	seed := fs.Uint64("seed", 1, "random seed")
	width := fs.Int("width", 8, "grid width")
	height := fs.Int("height", 8, "grid height")
	topoFlag := fs.String("topo", "mesh", "topology: mesh or torus")
	if err := parse(fs, args); err != nil {
		return err
	}
	prof, err := findApp(*app)
	if err != nil {
		return err
	}
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	tp, err := topology.New(*topoFlag, *width, *height)
	if err != nil {
		return err
	}
	src := workloads.NewCoherence(prof, tp, *seed)
	rec := tracefile.NewRecorder(src)
	n, err := noc.New(noc.Config{Width: *width, Height: *height, Topo: *topoFlag, Router: rc}, rec)
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
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := checkFaultMean(*faultMean); err != nil {
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
	tp, err := topology.New("mesh", *width, *height)
	if err != nil {
		return err
	}
	var horizon sim.Cycle
	for _, e := range entries {
		if e.Src >= tp.Nodes() || e.Dst >= tp.Nodes() {
			return fmt.Errorf("%s: packet %d->%d at cycle %d is outside the %dx%d mesh "+
				"(-width/-height must match the recording)", *in, e.Src, e.Dst, e.Cycle, *width, *height)
		}
		horizon = max(horizon, e.Cycle)
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
	if err := parse(fs, args); err != nil {
		return err
	}
	// No cycles deliver no packets: a table of zero latencies.
	if *cycles < 1 {
		return fmt.Errorf("-cycles must be >= 1, got %d", *cycles)
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

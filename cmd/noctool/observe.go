package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
)

// A view is one instrumented read-out of a simulation. flags registers
// the view's own flags beside the sim flags and returns its plan, which
// runObserve calls once both are parsed.
type view struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(sf *simFlags) (plan, error)
}

// plan is what a view asks of the one observed run.
type plan struct {
	newObs func(nodes int) (*obs.Observer, error)      // the observer the view reads: counters, trace ring, windows or flight lanes
	attach func(n *noc.Network)                        // if non-nil, runs on the built network before the first cycle
	print  func(n *noc.Network, o *obs.Observer) error // runs after the last cycle; nil: the view needed no run
}

var views = []view{
	{"metrics", "per-router observability counters and the run's delivery summary", metricsView},
	{"spans", "per-packet hop spans: where the slowest packets spent their cycles, hop by hop", spansView},
	{"heatmap", "windowed link heatmaps and the top-N bottleneck links with their stall mix", heatmapView},
	{"flightrec", "flight recorder armed, watchdog suspects dump the recent events to JSON Lines", flightrecView},
	{"trace", "write the cycle-accurate event trace (-format chrome|jsonl)", traceView},
}

// viewNames lists the observe views, joined by sep.
func viewNames(sep string) string {
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.name
	}
	return strings.Join(names, sep)
}

// runObserve runs `noctool observe <view> [flags]`: one simulation with
// the observer the view asks for, read out by the view's printer. A
// traced view traces only the measured window: the -warmup cycles run
// with the tracer paused (warmup packets are excluded from the latency
// statistics anyway).
func runObserve(args []string) error {
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		fmt.Fprintln(os.Stderr, "usage: noctool observe <view> [flags]\n\nviews:")
		for _, v := range views {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", v.name, v.summary)
		}
		if len(args) == 0 {
			return fmt.Errorf("want a view: %s", viewNames(", "))
		}
		return flag.ErrHelp
	}
	var v view
	for _, c := range views {
		if c.name == args[0] {
			v = c
		}
	}
	if v.flags == nil {
		return fmt.Errorf("unknown view %q (want %s)", args[0], viewNames(", "))
	}
	fs := flag.NewFlagSet("observe "+v.name, flag.ContinueOnError)
	sf := addSimFlags(fs)
	planFor := v.flags(fs)
	if err := parse(fs, args[1:]); err != nil {
		return err
	}
	p, err := planFor(sf)
	if err != nil || p.print == nil {
		return err
	}
	n, o, err := sf.build(p.newObs)
	if err != nil {
		return err
	}
	defer n.Close()
	if p.attach != nil {
		p.attach(n)
	}
	total := sim.Cycle(*sf.cycles)
	if o.Tracer != nil {
		warm := sim.Cycle(*sf.warmup)
		if warm >= total {
			fmt.Fprintf(os.Stderr, "noctool observe %s: warmup (%d) covers the whole run (%d cycles); "+
				"nothing will be traced — lower -warmup or raise -cycles\n", v.name, warm, total)
			warm = total
		}
		if warm > 0 {
			o.Tracer.SetEnabled(false)
			n.Run(warm)
			o.Tracer.SetEnabled(true)
		}
		total -= warm
	}
	n.Run(total)
	return p.print(n, o)
}

// traceEvents rejects a trace capacity that would leave a traced view
// without a tracer, or one past the ring limit.
func traceEvents(events int) error {
	return ringFlag("events", events, 1, float64(events)*float64(obs.EventSlotBytes),
		fmt.Sprintf("%d events × %d B", events, obs.EventSlotBytes))
}

// metricsView prints the per-router observability counters.
func metricsView(*flag.FlagSet) func(*simFlags) (plan, error) {
	return func(sf *simFlags) (plan, error) {
		return plan{newObs: traced(0), print: func(n *noc.Network, o *obs.Observer) error {
			st := n.Stats()
			fmt.Print(obs.FormatPerRouter(o.Metrics, uint64(n.Now())))
			fmt.Printf("\npackets:    %d created, %d delivered, %d in flight\n",
				st.Created(), st.Ejected(), st.InFlight())
			fmt.Printf("delivery:   ratio %.4f (%d dropped, %d retransmitted, %d duplicates suppressed)\n",
				st.DeliveryRatio(), st.Dropped(), st.Retransmits(), st.Duplicates())
			fmt.Printf("latency:    avg %.2f cycles, p95 %.0f\n", st.AvgLatency(), st.Percentile(95))
			fmt.Printf("functional: %v\n", n.Functional())
			return nil
		}}, sf.requireMeasuredWindow()
	}
}

// spansView prints the per-packet hop-span report: where the slowest
// packets spent their cycles, hop by hop and pipeline phase by phase.
func spansView(fs *flag.FlagSet) func(*simFlags) (plan, error) {
	events := fs.Int("events", 1<<20, "trace capacity, split evenly into one ring per router; spans are built from retained events")
	top := fs.Int("top", 5, "how many of the slowest packets to detail")
	return func(*simFlags) (plan, error) {
		return plan{newObs: traced(*events), print: func(n *noc.Network, _ *obs.Observer) error {
			fmt.Print(obs.FormatSpans(n.Spans(), *top))
			return nil
		}}, traceEvents(*events)
	}
}

// traceView writes the captured event trace to a file.
func traceView(fs *flag.FlagSet) func(*simFlags) (plan, error) {
	out := fs.String("o", "trace.json", "output file")
	format := fs.String("format", "chrome", "chrome (trace_event JSON) or jsonl (JSON Lines)")
	events := fs.Int("events", 1<<20, "trace capacity, split evenly into one ring per router: each router's most recent events are retained")
	return func(*simFlags) (plan, error) {
		if *format != "chrome" && *format != "jsonl" {
			return plan{}, fmt.Errorf("unknown format %q (want chrome or jsonl)", *format)
		}
		return plan{newObs: traced(*events), print: func(_ *noc.Network, o *obs.Observer) error {
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
		}}, traceEvents(*events)
	}
}

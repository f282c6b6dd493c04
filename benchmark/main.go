// Command benchmark is gonoc's benchmark: six workloads, each run as
// repeated passes of fixed work, timed from outside the simulator through
// exported functions only. See README.md in this directory for the
// workloads, the metrics and how they are meant to move.
//
//	benchmark/run.sh --workload mesh64_lowload --seed 2014 --seconds 15 --trace 0
//	benchmark/run.sh --workload mesh64_lowload --seed 2014 --seconds 15 --trace 1
//	benchmark/run.sh                # every workload, one after the other
//	benchmark/run.sh -selfcheck     # two full sets, compared against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit code is 0
// only when every correctness check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	scale     float64
	selfcheck bool
	traceOut  string
	spec      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 2014, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 12, "host seconds to measure for; passes repeat until they are used up")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.Float64Var(&o.scale, "scale", defaultScale, "share of the full-size workloads one pass runs")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two full sets and compare them against the bounds in BENCHMARK.json")
	fs.StringVar(&o.traceOut, "trace-out", "", "file the spans of a traced run are written to (default .bench_build/trace-<workload>.json)")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition, read by -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || !(o.scale > 0 && o.scale <= 1) || o.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: want --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale (0,1]]")
		return 2
	}
	o.trace = trace == 1
	names := workloadNames
	if o.workload != "all" {
		if newWorkload(o.workload, env{scale: 1}) == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q; want all or one of %s\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{o.workload}
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 2))
	fmt.Fprintf(stdout, "recorder: go=%s nproc=%d gomaxprocs=%d commit=%s seed=%d scale=%.4g seconds=%g trace=%d\n",
		runtime.Version(), nproc, runtime.GOMAXPROCS(0), commit(), o.seed, o.scale, o.seconds, trace)

	e := env{seed: o.seed, scale: o.scale, nproc: nproc}
	if o.selfcheck {
		return selfcheck(e, o, stdout, stderr)
	}
	code := 0
	for _, name := range names {
		rep, err := runWorkload(name, e, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if err := rep.print(stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !rep.result.Correct {
			code = 1
		}
	}
	return code
}

// commit returns the checkout's HEAD, or "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report is everything one workload run prints.
type report struct {
	workload  string
	result    result
	order     []metricDef // the metrics of result, in print order
	info      []infoLine
	hash      uint64
	walls     []float64 // host seconds of every pass, in run order
	slices    []slice   // every slice measured
	failures  []string
	selfTimes []selfTime
}

func (r *report) print(w io.Writer) error {
	secs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		secs[i] = s.secs
	}
	fmt.Fprintf(w, "\n== %s: %d passes (%.3f s), %d slices, median slice %.3f ms", r.workload, len(r.walls), r.walls, len(secs), median(secs)*1e3)
	if pct, v, ok := tailPercentile(secs); ok {
		fmt.Fprintf(w, ", p%d %.3f ms", pct, v*1e3)
	}
	fmt.Fprintln(w)
	for _, d := range r.order {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, r.result.Metrics[d.name].Value, d.unit)
	}
	for _, l := range r.info {
		fmt.Fprintf(w, "%-40s %16.6g %s (informational)\n", l.name, l.value, l.unit)
	}
	share := 0.0
	if r.result.Attempted > 0 {
		share = float64(r.result.Failed) / float64(r.result.Attempted)
	}
	fmt.Fprintf(w, "%-40s %16.6g ratio (informational; %d of %d operations)\n", "failed_share", share, r.result.Failed, r.result.Attempted)
	fmt.Fprintf(w, "%-40s %#016x (informational)\n", "state_hash", r.hash)
	for _, s := range r.selfTimes {
		fmt.Fprintf(w, "self time %-30s %6d calls %12.3f ms\n", s.Name, s.Calls, s.SelfMs)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload measures one workload: set-up time, the untimed checks,
// then passes of the fixed work until -seconds are used up. A traced run
// first measures the single layers, then alternates untraced and traced
// passes so the tracing overhead is read inside one process; it always
// completes its warm-up and one pass of each kind, however long that takes.
func runWorkload(name string, e env, o options) (*report, error) {
	w := newWorkload(name, e)
	rep := &report{workload: name}

	setup, err := sampleSetup(w.setup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if rep.failures, err = w.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	begin := time.Now()
	var tr *spanLog
	var layers map[string]float64
	if o.trace {
		tr = newSpanLog()
		if layers, err = runLayers(e, w.offeredRate(), tr); err != nil {
			return nil, err
		}
		// The first pass of a process can run well below speed (check_2x2's
		// takes almost twice as long while the heap grows). The end-to-end
		// medians absorb one slow pass; a traced run has too few passes for
		// that, so it spends one as a warm-up before comparing traced with
		// untraced.
		if _, err := w.pass(nil, false); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
	}
	var plain, traced []passResult
	var keep any // only the newest pass's networks stay live, however many passes fit
	for {
		tracing := o.trace && len(plain) > len(traced)
		var res passResult
		if tracing {
			res, err = w.pass(tr, true)
		} else {
			res, err = w.pass(nil, false)
		}
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(plain)+len(traced)+1, err)
		}
		keep, res.keep = res.keep, nil
		if tracing {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		rep.walls = append(rep.walls, res.wall)
		// Another pass only if at least half of it fits, and a traced run
		// needs one pass of each kind.
		if (!o.trace || len(traced) > 0) && time.Since(begin).Seconds()+res.wall/2 > o.seconds {
			break
		}
	}
	live := liveHeapMB()
	runtime.KeepAlive(keep)
	all := append(append([]passResult(nil), plain...), traced...)

	first := all[0]
	rep.hash = first.hash
	rep.info = append(first.info,
		infoLine{"sim_p99_latency_cycles", first.sim.p99Latency, "cycles"},
		infoLine{"sim_max_latency_cycles", first.sim.maxLatency, "cycles"})
	rep.failures = append(rep.failures, first.failures...)
	for i, p := range all[1:] {
		if p.hash != first.hash || p.sim != first.sim || p.attempted != first.attempted || p.failed != first.failed {
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d differs from pass 1: the simulation did not repeat", i+2))
		}
	}
	rep.result = result{
		Correct:   len(rep.failures) == 0 && first.failed == 0 && first.attempted > 0,
		Attempted: first.attempted,
		Failed:    first.failed,
		Metrics:   map[string]metricValue{},
	}

	var values map[string]float64
	if o.trace {
		rep.order = perLayerDefs
		values = perLayerValues(layers, plain, traced, tr)
		rep.slices = allSlices(traced)
		rep.selfTimes = tr.selfTimes()
		path := o.traceOut
		if path == "" {
			path = ".bench_build/trace-" + name + ".json"
		}
		if err := tr.write(path, name, e.seed); err != nil {
			return nil, err
		}
	} else {
		rep.order = endToEndDefs
		values = endToEndValues(setup, live, plain)
		rep.slices = allSlices(plain)
	}
	for _, d := range rep.order {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		rep.result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(rep.order) {
		return nil, fmt.Errorf("%d metrics were produced, %d are declared", len(values), len(rep.order))
	}
	return rep, nil
}

// allSlices flattens the slices of the passes.
func allSlices(passes []passResult) []slice {
	var out []slice
	for _, p := range passes {
		out = append(out, p.slices...)
	}
	return out
}

// medianOf returns the median of f over the passes.
func medianOf(passes []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// selfcheck runs two full untraced sets back to back and fails if any
// end-to-end metric differs between them by more than its bound, if any
// simulated-time metric differs at all, or if any operation failed.
func selfcheck(e env, o options, stdout, stderr io.Writer) int {
	spec, err := readSpec(o.spec)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	o.trace = false
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = map[string]*report{}
		for _, name := range workloadNames {
			rep, err := runWorkload(name, e, o)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d: %s: %v\n", i+1, name, err)
				return 1
			}
			fmt.Fprintf(stdout, "\n-- set %d", i+1)
			if err := rep.print(stdout); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			sets[i][name] = rep
		}
	}
	bad := 0
	fmt.Fprintln(stdout)
	for _, name := range workloadNames {
		a, b := sets[0][name], sets[1][name]
		if !a.result.Correct || !b.result.Correct {
			fmt.Fprintf(stdout, "SELFCHECK %s: a set failed its correctness checks\n", name)
			bad++
		}
		if a.hash != b.hash {
			fmt.Fprintf(stdout, "SELFCHECK %s: state hash %#x in set 1, %#x in set 2\n", name, a.hash, b.hash)
			bad++
		}
		for _, m := range spec.EndToEnd {
			x, y := a.result.Metrics[m.Name].Value, b.result.Metrics[m.Name].Value
			diff := math.Abs(x-y) / math.Abs(x)
			limit := m.Bound
			if strings.HasPrefix(m.Name, "sim_") {
				limit = 0
			}
			verdict := "ok"
			if diff > limit {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(stdout, "selfcheck %-18s %-34s %14.6g %14.6g  %6.2f%% of %5.1f%% %s\n", name, m.Name, x, y, diff*100, limit*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "SELFCHECK FAILED: %d findings\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "SELFCHECK OK")
	return 0
}

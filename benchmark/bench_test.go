package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testScale runs every workload at a twentieth of its full size.
const testScale = "0.05"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetricsMatchSpec keeps the metric tables in this package
// and BENCHMARK.json equal: same names, same units, same order.
func TestDeclaredMetricsMatchSpec(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: %s is declared twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)

	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloadNames[i])
		}
		if w.Why == "" {
			t.Errorf("workload %s records no reason", w.Name)
		}
	}
}

// lastLine runs the benchmark in process and decodes the result line.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

// emitsExactly fails unless r carries every metric of defs once, with its
// unit, and nothing else.
func emitsExactly(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("%s is declared but not emitted", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s has unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsEmitEveryEndToEndMetric runs each workload once at 1/20
// scale and checks its result line against the declared metrics.
func TestWorkloadsEmitEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := lastLine(t, "--workload", name, "--seed", "2014", "--seconds", "0", "--scale", testScale, "--trace", "0")
			emitsExactly(t, r, endToEndDefs)
			for _, d := range endToEndDefs {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.name, r.Metrics[d.name].Value)
				}
			}
		})
	}
}

// TestTracedRunEmitsEveryPerLayerMetric runs one traced workload. The
// layer measurements take a few seconds whatever the scale, so -short
// skips it.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer measurements take about six seconds")
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	r := lastLine(t, "--workload", "linkflap_recovery", "--seed", "2014", "--seconds", "0", "--scale", testScale, "--trace", "1", "--trace-out", out)
	emitsExactly(t, r, perLayerDefs)
	for _, name := range []string{"noc.reroutes", "noc.retransmits", "noc.link_drops", "noc.step_ns_per_router", "core.tick_loaded_ns"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on the link-flap workload, want a positive value", name, r.Metrics[name].Value)
		}
	}
}

// TestSameSeedSameSimulation checks that the seed alone fixes the
// simulated results, and that another seed changes them.
func TestSameSeedSameSimulation(t *testing.T) {
	sim := func(seed string) float64 {
		r := lastLine(t, "--workload", "mesh16_loadsweep", "--seed", seed, "--seconds", "0", "--scale", testScale, "--trace", "0")
		return r.Metrics["sim_avg_latency_cycles"].Value
	}
	a, b, c := sim("1"), sim("1"), sim("2")
	if a != b {
		t.Errorf("seed 1 gave latency %v, then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both gave latency %v", a)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v, ok := tailPercentile(xs); !ok || pct != 75 || v != 30 {
		t.Errorf("tailPercentile of 1..40 = p%d %v %v, want p75 30", pct, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:10]); ok {
		t.Error("ten samples leave no percentile with ten samples beyond it")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/telemetry"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f (os.Stdout or os.Stderr) redirected and
// returns what it printed. The reader drains concurrently: heatmap JSON
// documents exceed the pipe buffer, so reading after fn returns would
// deadlock.
func capture(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	runErr := fn()
	w.Close()
	*f = old
	return <-done, runErr
}

// TestRunHeatmapFaultedBottleneck is the headline acceptance check for
// the congestion tier: on an 8x8 mesh with router 27's East link dead,
// the bottleneck report must name the links adjacent to the detour —
// traffic that would have used 27->28 now queues at 27's other ports and
// re-enters eastward around the hole, showing up as route-blocked
// stalls there.
func TestRunHeatmapFaultedBottleneck(t *testing.T) {
	scenario := []string{
		"-width", "8", "-height", "8", "-cycles", "20000", "-warmup", "0",
		"-rate", "0.01", "-inject", "27:link:e",
	}
	out, err := captureStdout(t, func() error {
		return runView("heatmap")(append([]string{"-top", "8"}, scenario...))
	})
	if err != nil {
		t.Fatalf("heatmap: %v", err)
	}
	for _, want := range []string{
		"outbound E links",
		"top 8 bottleneck links",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap output missing %q; got:\n%s", want, out)
		}
	}
	// The dead link's neighbors carry the detour: packets that would have
	// crossed 27->28 leave router 27 westward around the hole, and 28's
	// East output carries the opposite direction's detour. Both show up
	// with route-blocked stalls the healthy links never have.
	table := out[strings.Index(out, "top 8 bottleneck links"):]
	for _, link := range []string{"r27(3,3) >W", "r28(4,3) >E"} {
		if !strings.Contains(table, link) {
			t.Errorf("bottleneck report does not name detour link %s:\n%s", link, table)
		}
	}

	// JSON mode on the same scenario: the full document must show
	// route-blocked stalls concentrated at the dead link's router.
	out, err = captureStdout(t, func() error {
		return runView("heatmap")(append([]string{"-top", "0", "-json"}, scenario...))
	})
	if err != nil {
		t.Fatalf("heatmap -json: %v", err)
	}
	var doc telemetry.Heatmap
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("heatmap -json not valid JSON: %v", err)
	}
	if doc.Cycle != 20000 || doc.BucketCycles != uint64(obs.DefaultBucketCycles) {
		t.Fatalf("doc header = cycle %d bucket %d", doc.Cycle, doc.BucketCycles)
	}
	var routeStallsAt27, routeStallsTotal uint64
	for _, l := range doc.Links {
		rb := l.Stalls[obs.StallRouteBlocked]
		routeStallsTotal += rb
		if l.Node == 27 {
			routeStallsAt27 += rb
		}
	}
	if routeStallsTotal == 0 {
		t.Fatal("dead link produced no route-blocked stalls anywhere")
	}
	if routeStallsAt27 == 0 {
		t.Fatalf("no route-blocked stalls at the faulted router (total %d elsewhere)", routeStallsTotal)
	}
}

// TestRunHeatmapFaultFreeHasNoRouteStalls pins the classifier's negative
// space: with every link healthy, congestion is credit/arbitration only.
func TestRunHeatmapFaultFreeHasNoRouteStalls(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runView("heatmap")([]string{
			"-width", "4", "-height", "4", "-cycles", "5000", "-warmup", "0",
			"-rate", "0.05", "-top", "0", "-json",
		})
	})
	if err != nil {
		t.Fatalf("heatmap: %v", err)
	}
	var doc telemetry.Heatmap
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	var flits, route, drain uint64
	for _, l := range doc.Links {
		flits += l.Flits
		route += l.Stalls[obs.StallRouteBlocked]
		drain += l.Stalls[obs.StallFaultDrain]
	}
	if flits == 0 {
		t.Fatal("no traffic recorded")
	}
	if route != 0 || drain != 0 {
		t.Fatalf("fault-free run shows %d route-blocked and %d fault-drain stalls", route, drain)
	}
}

// TestRunFlightrecTripAndReplay drives the flightrec view end to end:
// a wedged baseline router trips the watchdog, the dump lands in the
// JSON Lines file, and -replay formats it back without running anything.
func TestRunFlightrecTripAndReplay(t *testing.T) {
	dumpFile := filepath.Join(t.TempDir(), "flight.jsonl")
	out, err := captureStdout(t, func() error {
		return runView("flightrec")([]string{
			"-width", "4", "-height", "4", "-cycles", "15000", "-warmup", "0",
			"-rate", "0.01", "-baseline", "-inject", "9:va1:n:0",
			"-watchdog", "200", "-o", dumpFile,
		})
	})
	if err != nil {
		t.Fatalf("flightrec: %v", err)
	}
	if !strings.Contains(out, "suspects raised") || strings.Contains(out, "0 suspects raised") {
		t.Fatalf("watchdog never tripped:\n%s", out)
	}
	if !strings.Contains(out, "dumps captured") || strings.Contains(out, "0 dumps captured") {
		t.Fatalf("trip captured no dump:\n%s", out)
	}
	if st, err := os.Stat(dumpFile); err != nil || st.Size() == 0 {
		t.Fatalf("dump file missing or empty: %v", err)
	}

	replay, err := captureStdout(t, func() error {
		return runView("flightrec")([]string{"-replay", dumpFile})
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, want := range []string{"watchdog", "cycle", "dumps replayed from"} {
		if !strings.Contains(replay, want) {
			t.Errorf("replay output missing %q; got:\n%s", want, replay)
		}
	}
}

// TestRunFlightrecFinalDump: with no anomaly, -final still freezes the
// end-of-run history so quiet runs stay inspectable.
func TestRunFlightrecFinalDump(t *testing.T) {
	dumpFile := filepath.Join(t.TempDir(), "final.jsonl")
	out, err := captureStdout(t, func() error {
		return runView("flightrec")([]string{
			"-width", "4", "-height", "4", "-cycles", "3000", "-warmup", "0",
			"-rate", "0.02", "-watchdog", "0", "-final", "-o", dumpFile,
		})
	})
	if err != nil {
		t.Fatalf("flightrec: %v", err)
	}
	if !strings.Contains(out, "end of run") {
		t.Fatalf("no end-of-run dump:\n%s", out)
	}
	f, err := os.Open(dumpFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dumps, err := obs.ReadDumps(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || dumps[0].Reason != "end of run" || len(dumps[0].Events) == 0 {
		t.Fatalf("dump file = %d dumps, want one non-empty end-of-run dump", len(dumps))
	}
}

// TestSimHeatmapOutput pins sim -heatmap's whole report on a 4x4 grid.
// The mesh, torus and sa1 rows are byte for byte what the tool printed
// at 9c84917 but for the throughput lines, which since count the flits
// of packets created in the warmup too; the router-kill row draws the
// killed router as X and reports the network non-functional.
func TestSimHeatmapOutput(t *testing.T) {
	const head = "cycles:        3000\n"
	meshHeat := "router load heatmap (max 834 flits)\n 3 5 6 3\n 6 7 8 6\n 6 7 9 6\n 4 6 6 4\n"
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"mesh", nil, head +
			"packets:       966 created, 963 delivered, 3 in flight\n" +
			"avg latency:   15.62 cycles (network 15.60)\n" +
			"p50/p95/p99:   15 / 25 / 28 cycles\n" +
			"throughput:    0.0542 flits/node/cycle\n" +
			"functional:    true\n" + meshHeat},
		{"torus", []string{"-topo", "torus"}, head +
			"packets:       966 created, 964 delivered, 2 in flight\n" +
			"avg latency:   14.64 cycles (network 14.60)\n" +
			"p50/p95/p99:   15 / 24 / 31 cycles\n" +
			"throughput:    0.0545 flits/node/cycle\n" +
			"functional:    true\n" +
			"router load heatmap (max 564 flits)\n 6 7 8 6\n 8 7 7 7\n 7 7 9 8\n 7 7 8 8\n"},
		{"sa1 fault", []string{"-inject", "5:sa1:e"}, head +
			"packets:       966 created, 963 delivered, 3 in flight\n" +
			"avg latency:   15.67 cycles (network 15.65)\n" +
			"p50/p95/p99:   15 / 25 / 28 cycles\n" +
			"throughput:    0.0542 flits/node/cycle\n" +
			"functional:    true\n" + meshHeat},
		{"router kill", []string{"-inject", "5:router"}, head +
			"packets:       966 created, 849 delivered, 4 in flight\n" +
			"reliability:   delivery ratio 0.8789 (113 dropped, 0 retransmitted, 0 duplicates suppressed)\n" +
			"avg latency:   18.53 cycles (network 18.46)\n" +
			"p50/p95/p99:   19 / 33 / 42 cycles\n" +
			"throughput:    0.0485 flits/node/cycle\n" +
			"functional:    false\n" +
			"router load heatmap (max 1027 flits)\n 3 4 6 3\n 4 X 6 4\n 5 5 9 5\n 3 4 5 3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-width", "4", "-height", "4", "-cycles", "3000", "-warmup", "500", "-heatmap"}, tc.args...)
			got, err := captureStdout(t, func() error { return runSim(args) })
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("sim %v printed\n%swant\n%s", tc.args, got, tc.want)
			}
		})
	}
}

// TestSimThroughputPastSaturation holds sim's throughput line to what it
// says, accepted flits per node per cycle: every flit ejected after the
// warmup, the warmup's backlog included. On a fault-free 8x8 mesh the
// accepted rate plateaus at 0.171-0.173 from an offered 0.08
// packets/node/cycle on (seeds 1-5 measured), so raising the offered
// load past saturation must not lower it, and doubling the horizon must
// not move it. Counting only packets created after the warmup read
// 0.1437 at 0.12 and 0.1108 at 0.18 over 12 k cycles, 0.1440 over 24 k.
func TestSimThroughputPastSaturation(t *testing.T) {
	throughput := func(rate string, cycles string) float64 {
		t.Helper()
		out, err := captureStdout(t, func() error {
			return runSim([]string{"-width", "8", "-height", "8", "-rate", rate, "-cycles", cycles, "-warmup", "2000"})
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "throughput:"); ok {
				var v float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &v); err != nil {
					t.Fatalf("throughput line %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("sim printed no throughput line:\n%s", out)
		return 0
	}
	below, past, longer := throughput("0.12", "12000"), throughput("0.18", "12000"), throughput("0.18", "24000")
	t.Logf("offered 0.12: %.4f; offered 0.18: %.4f, over 24 k cycles %.4f", below, past, longer)
	if past < 0.97*below {
		t.Errorf("throughput fell from %.4f to %.4f as offered load rose past saturation", below, past)
	}
	if math.Abs(past-longer) > 0.02*longer {
		t.Errorf("throughput %.4f over 12 k cycles, %.4f over 24 k: the figure depends on the horizon", past, longer)
	}
}

package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimFlagValidation drives the shared sim flag group through build:
// values the flag package parses but the simulator must not accept die
// with a one-line usage error instead of being silently defaulted away.
func TestSimFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the build error; "" means success
	}{
		{"defaults", nil, ""},
		{"retx enabled", []string{"-retx-timeout", "500", "-retx-retries", "3", "-retx-buffer", "8"}, ""},
		{"negative retries", []string{"-retx-timeout", "500", "-retx-retries", "-1"}, "-retx-retries must be >= 0"},
		{"negative buffer", []string{"-retx-timeout", "500", "-retx-buffer", "-4"}, "-retx-buffer must be >= 0"},
		{"retries without timeout", []string{"-retx-retries", "3"}, "need -retx-timeout"},
		{"buffer without timeout", []string{"-retx-buffer", "8"}, "need -retx-timeout"},
		{"negative rate", []string{"-rate", "-0.5"}, "-rate must be in [0, 1]"},
		{"rate above one", []string{"-rate", "1.5"}, "-rate must be in [0, 1]"},
		{"NaN rate", []string{"-rate", "NaN"}, "-rate must be in [0, 1], got NaN"},
		// The injector draws over [1, 2·mean]: at 2^63 the bound wrapped
		// to 0 (a panic in rng), just above 2^62 to a short interval.
		{"fault mean 2^63", []string{"-fault-mean", "9223372036854775808"}, "-fault-mean must be <= 4611686018427387904 (2^62)"},
		{"fault mean past 2^62", []string{"-fault-mean", "4611686018427387905"}, "-fault-mean must be <= 4611686018427387904 (2^62)"},
		{"unknown pattern", []string{"-pattern", "zigzag"}, `unknown pattern "zigzag"`},
		{"malformed inject", []string{"-inject", "bogus"}, "fault spec"},
		{"inject unknown kind", []string{"-inject", "3:warp"}, `unknown kind "warp"`},
		{"inject outside mesh", []string{"-width", "2", "-height", "2", "-inject", "9:router"}, "outside the 4-node mesh"},
		{"torus", []string{"-topo", "torus"}, ""},
		{"torus tornado", []string{"-topo", "torus", "-pattern", "tornado", "-width", "4", "-height", "4"}, ""},
		{"unknown topo", []string{"-topo", "hypercube"}, `unknown kind "hypercube"`},
		{"inject outside torus", []string{"-topo", "torus", "-width", "4", "-height", "4", "-inject", "99:sa1:e"},
			"outside the 16-node torus"},
		{"torus link fault ok", []string{"-topo", "torus", "-inject", "5:link:e"}, ""},
		{"torus router fault ok", []string{"-topo", "torus", "-inject", "5:router"}, ""},
		{"torus wrap link fault ok", []string{"-topo", "torus", "-width", "4", "-height", "4", "-inject", "3:link:e"}, ""},
		{"torus missing link still rejected", []string{"-topo", "torus", "-width", "4", "-height", "1", "-inject", "0:link:n"},
			"has no N link"},
		{"mesh link fault ok", []string{"-inject", "5:link:e"}, ""},
		// The traffic patterns panic on grids they cannot serve, and the
		// traffic is built before noc.New rejects the grid.
		{"one-router mesh", []string{"-width", "1", "-height", "1"}, "a 1x1 mesh has one node"},
		{"transpose on a rectangle", []string{"-pattern", "transpose", "-width", "4", "-height", "2"},
			"-pattern transpose needs a square grid, got 4x2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("sim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			sf := addSimFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("flag parse: %v", err)
			}
			n, _, err := sf.build(nil)
			if n != nil {
				n.Close()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("build: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("build: want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("build: error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRetxTimeoutRejectsNegative pins the flag-level behavior for the
// uint64 timeout: the flag package itself refuses a negative value, so
// commands exit with a usage error before any simulation starts.
func TestRetxTimeoutRejectsNegative(t *testing.T) {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addSimFlags(fs)
	err := fs.Parse([]string{"-retx-timeout", "-5"})
	if err == nil || !strings.Contains(err.Error(), "invalid value") {
		t.Fatalf("parsing -retx-timeout -5: want invalid-value error, got %v", err)
	}
}

// TestCommandFlagValidation drives the commands themselves with flag
// values that used to end in a goroutine trace (MustNew on a bad grid,
// a trace naming nodes the grid lacks, a nil tracer, makeslice on a
// negative trial count) or in silence (NaN statistics, an unknown suite
// running nothing, an all-zero statistics table from a run with no
// measured window, a "faulty" latency half with no injector): each must
// come back as a one-line error.
func TestCommandFlagValidation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	// One packet between opposite corners of an 8x8 grid.
	recorded := filepath.Join(dir, "8x8.csv")
	if err := os.WriteFile(recorded, []byte("5,0,63,0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Traces tracefile.Read used to load as valid (or, the last, to die
	// segmenting): a sixth field, junk after the fifth, a 2e8-flit packet.
	badTrace := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sixth := badTrace("sixth.csv", "1,0,1,0,1,zzz\n")
	trailing := badTrace("trailing.csv", "5,2,1,0,1 trailing\n")
	huge := badTrace("huge.csv", "1,0,1,0,200000000\n")
	cases := []struct {
		name    string
		run     func([]string) error
		args    []string
		wantErr string
	}{
		{"record width 1", runRecord, []string{"-o", out, "-width", "1"}, "invalid 1x8 dimensions"},
		{"replay width 0", runReplay, []string{"-i", recorded, "-width", "0"}, "invalid mesh 0x8"},
		{"replay on a smaller grid", runReplay, []string{"-i", recorded, "-width", "4", "-height", "4"},
			"outside the 4x4 mesh"},
		{"trace events 0", runView("trace"), []string{"-o", out, "-events", "0"}, "-events must be >= 1"},
		{"spans events 0", runView("spans"), []string{"-events", "0"}, "-events must be >= 1"},
		{"trace events past 1 GiB", runView("trace"), []string{"-o", out, "-events", "100000000"},
			"-events 100000000 asks for 2400000000 B of ring slots (100000000 events × 24 B), above the 1 GiB limit"},
		{"spans events past 1 GiB", runView("spans"), []string{"-events", "100000000"}, "above the 1 GiB limit"},
		{"heatmap one window", runView("heatmap"), []string{"-windows", "1"}, "-windows must be >= 2, got 1"},
		{"heatmap negative windows", runView("heatmap"), []string{"-windows", "-1"}, "-windows must be >= 2, got -1"},
		{"heatmap zero bucket", runView("heatmap"), []string{"-bucket", "0"}, "-bucket must be >= 1, got 0"},
		{"heatmap windows past 1 GiB", runView("heatmap"), []string{"-windows", "100000000"},
			"(100000000 windows × 64 nodes × 5 ports × (4 VCs + 4 stall kinds) × 4 B), above the 1 GiB limit"},
		{"flightrec zero events", runView("flightrec"), []string{"-o", out, "-events", "0"}, "-events must be >= 1, got 0"},
		{"flightrec negative events", runView("flightrec"), []string{"-o", out, "-events", "-1"}, "-events must be >= 1, got -1"},
		{"flightrec events past 1 GiB", runView("flightrec"), []string{"-o", out, "-events", "100000000"},
			"-events 100000000 asks for 153600000000 B of ring slots (64 nodes × 100000000 events × 24 B), above the 1 GiB limit"},
		{"campaign negative trials", runCampaign, []string{"-trials", "-5"}, "-trials must be >= 1"},
		{"campaign zero trials", runCampaign, []string{"-trials", "0"}, "-trials must be >= 1"},
		{"latency unknown suite", runLatency, []string{"-suite", "nope"}, `unknown suite "nope"`},
		{"latency no measured window", runLatency, []string{"-suite", "splash2", "-measure", "0"}, "-measure must be >= 1"},
		{"latency no faults in the faulty half", runLatency, []string{"-suite", "splash2", "-fault-mean", "0"}, "-fault-mean must be >= 1"},
		{"latency fault mean 2^63", runLatency, []string{"-suite", "splash2", "-measure", "100", "-fault-mean", "9223372036854775808"},
			"-fault-mean must be <= 4611686018427387904 (2^62)"},
		{"replay fault mean 2^63", runReplay, []string{"-i", recorded, "-fault-mean", "9223372036854775808"},
			"-fault-mean must be <= 4611686018427387904 (2^62)"},
		{"metrics fault mean past 2^63", runView("metrics"), []string{"-cycles", "2000", "-warmup", "500", "-fault-mean", "9223372036854775813"},
			"-fault-mean must be <= 4611686018427387904 (2^62)"},
		{"ablation zero cycles", runAblation, []string{"-cycles", "0"}, "-cycles must be >= 1, got 0"},
		{"sim warmup covers the run", runSim, []string{"-cycles", "100", "-warmup", "500"}, "-cycles (100) must exceed -warmup (500)"},
		{"sim warmup equals the run", runSim, []string{"-cycles", "500", "-warmup", "500"}, "-cycles (500) must exceed -warmup (500)"},
		{"metrics warmup covers the run", runView("metrics"), []string{"-cycles", "100", "-warmup", "500"}, "-cycles (100) must exceed -warmup (500)"},
		{"serve warmup covers the run", runSim,
			[]string{"-telemetry", "127.0.0.1:0", "-cycles", "100", "-warmup", "500"}, "-cycles (100) must exceed -warmup (500)"},
		{"sim endless without telemetry", runSim, []string{"-cycles", "0"}, "-cycles 0 runs until interrupted and needs -telemetry"},
		{"sim interval without telemetry", runSim, []string{"-interval", "256"}, "-interval needs -telemetry"},
		{"observe no view", runObserve, nil, "want a view: metrics, spans, heatmap, flightrec, trace"},
		{"observe unknown view", runObserve, []string{"serve"}, `unknown view "serve"`},
		{"paper stray argument", runPaper, []string{"tables"}, `unexpected argument "tables"`},
		{"sim inject VC past the port's", runSim, []string{"-inject", "0:va1:n:9"}, "VC index 9 outside the port's 4 VCs"},
		{"sim baseline inject rcdup", runSim, []string{"-baseline", "-inject", "0:rcdup:e"}, "no correction circuitry"},
		{"sim baseline inject xbsec", runSim, []string{"-baseline", "-inject", "0:xbsec:e"}, "no correction circuitry"},
		{"sim inject port past the router's", runSim, []string{"-inject", "0:rc:7"}, "port 7 outside the router's 5 ports"},
		{"campaign one-router grid", runCampaign, []string{"-inject", "0:router", "-width", "1", "-height", "1"}, "invalid 1x1 dimensions"},
		{"campaign one-column grid", runCampaign, []string{"-inject", "0:router", "-width", "1", "-height", "2"}, "invalid 1x2 dimensions"},
		{"check crossval negative trials", runCheck, []string{"-mc", "1", "-crossval", "-trials", "-5"}, "-trials must be >= 1"},
		{"campaign inject VC past the port's", runCampaign, []string{"-inject", "0:va1:n:9"}, "VC index 9 outside the port's 4 VCs"},
		{"replay sixth field", runReplay, []string{"-i", sixth}, "line 1: want cycle,src,dst,class,size, got 6 fields"},
		{"replay trailing junk", runReplay, []string{"-i", trailing}, "line 1: "},
		{"replay oversized packet", runReplay, []string{"-i", huge}, "packet size 200000000 above the 1024-flit limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(tc.args)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("error %q is not a one-line message containing %q", err, tc.wantErr)
			}
		})
	}
}

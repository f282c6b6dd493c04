package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gonoc/internal/experiments"
	"gonoc/internal/obs"
)

func TestFindApp(t *testing.T) {
	for _, name := range []string{"fft", "canneal", "water", "x264"} {
		app, err := findApp(name)
		if err != nil || app.Name != name {
			t.Errorf("findApp(%q) = (%v, %v)", name, app, err)
		}
	}
	if _, err := findApp("nosuchapp"); err == nil {
		t.Error("findApp accepted an unknown application")
	}
}

// runView returns the entry point of `noctool observe <view>`.
func runView(view string) func([]string) error {
	return func(args []string) error { return runObserve(append([]string{view}, args...)) }
}

func TestRunSPFAndCampaign(t *testing.T) {
	if err := runPaper(nil); err != nil {
		t.Fatalf("paper: %v", err)
	}
	if err := runCampaign([]string{"-trials", "100"}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
}

func TestRunSimSmoke(t *testing.T) {
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "2000", "-warmup", "200",
		"-rate", "0.02", "-pattern", "transpose", "-fault-mean", "1500", "-heatmap",
	}
	if err := runSim(args); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if err := runSim([]string{"-pattern", "bogus"}); err == nil {
		t.Fatal("sim accepted an unknown pattern")
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.csv")
	if err := runRecord([]string{"-o", trace, "-app", "water", "-cycles", "3000"}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing/empty: %v", err)
	}
	if err := runReplay([]string{"-i", trace}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestRunTraceChrome is the headline acceptance check: a 4×4 mesh with an
// injected SA-stage fault must produce a valid Chrome trace_event file
// containing at least one bypass/borrow event.
func TestRunTraceChrome(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "4000", "-warmup", "500",
		"-rate", "0.05", "-inject", "5:sa1:e,5:va1:n:0", "-o", out,
	}
	if err := runView("trace")(args); err != nil {
		t.Fatalf("trace: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	var bypass, borrow bool
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "SA bypass":
			bypass = true
		case "VA borrow":
			borrow = true
		}
		if e.Ph != "X" && e.Ph != "i" && e.Ph != "M" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if !bypass || !borrow {
		t.Errorf("trace has bypass=%v borrow=%v, want both (fault mechanisms not captured)", bypass, borrow)
	}
}

func TestRunTraceJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "2000", "-warmup", "0",
		"-inject", "5:sa1:e", "-format", "jsonl", "-o", out, "-events", "5000",
	}
	if err := runView("trace")(args); err != nil {
		t.Fatalf("trace: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		if _, ok := obj["kind"]; !ok {
			t.Fatalf("line %d missing kind: %s", lines+1, sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("empty JSONL trace")
	}
}

// TestTraceFaultInjectVC pins the VC an injection event carries: none
// for a site of a whole port (RC, XB, ...), the site's own for a per-VC
// one (VA1).
func TestTraceFaultInjectVC(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "300", "-warmup", "0",
		"-inject", "5:rcdup:e,6:xb:w,3:va1:n:2", "-format", "jsonl", "-o", out,
	}
	if err := runView("trace")(args); err != nil {
		t.Fatalf("trace: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{5: int(obs.NoVC), 6: int(obs.NoVC), 3: 2} // router -> VC
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e struct {
			Kind       string
			Router, VC int
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line is not JSON: %v: %s", err, line)
		}
		if e.Kind != "fault inject" {
			continue
		}
		if vc, ok := want[e.Router]; !ok || e.VC != vc {
			t.Errorf("fault inject at router %d carries VC %d, want %d (%s)", e.Router, e.VC, vc, line)
		}
		delete(want, e.Router)
	}
	if len(want) != 0 {
		t.Errorf("no fault inject event for routers %v", want)
	}
}

func TestRunTraceErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	if err := runView("trace")([]string{"-format", "xml", "-o", out}); err == nil {
		t.Error("trace accepted an unknown format")
	}
	if err := runView("trace")([]string{"-inject", "bogus", "-o", out}); err == nil {
		t.Error("trace accepted a bad fault spec")
	}
	if err := runView("trace")([]string{"-width", "2", "-height", "2", "-inject", "9:sa1:e", "-o", out}); err == nil {
		t.Error("trace accepted a fault spec outside the mesh")
	}
}

func TestRunMetricsSmoke(t *testing.T) {
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "2000", "-warmup", "200",
		"-inject", "5:sa1:e", "-fault-mean", "1500",
	}
	if err := runView("metrics")(args); err != nil {
		t.Fatalf("metrics: %v", err)
	}
}

// TestCritPathDiffersFromArea pins the Section VI report `paper` prints:
// the VI-B critical path alone is a proper suffix of the VI-A + VI-B
// report, not a copy of it.
func TestCritPathDiffersFromArea(t *testing.T) {
	a := experiments.Area()
	full, crit := experiments.FormatArea(a), experiments.FormatCritPath(a)
	if full == crit {
		t.Fatal("critpath output identical to area output")
	}
	if !strings.Contains(crit, "critical path") || strings.Contains(crit, "Section VI-A") {
		t.Errorf("critpath report wrong sections:\n%s", crit)
	}
	if !strings.HasSuffix(full, crit) {
		t.Errorf("area report no longer embeds the critical-path section")
	}
}

// TestServeScrape is the live-telemetry acceptance check: while an
// endless `noctool sim -telemetry` run steps a faulty mesh, a scrape of
// /metrics must return Prometheus text with latency histogram buckets
// and per-router fault-tolerance counters; closing the stop channel must
// end the run cleanly.
func TestServeScrape(t *testing.T) {
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "0", "-warmup", "100",
		"-rate", "0.05", "-inject", "5:sa1:e",
		"-telemetry", "127.0.0.1:0", "-interval", "256",
	}
	ready := make(chan net.Addr, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		shutdown, err := simulate(args, func(a net.Addr) { ready <- a }, stop)
		shutdown()
		errc <- err
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before becoming ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}
	want := []string{
		"# TYPE gonoc_packet_latency_cycles histogram",
		`gonoc_packet_latency_cycles_bucket{class="all",le="+Inf"}`,
		"gonoc_packets_measured_total",
		`gonoc_sa_bypass_grants_total{router="5"`,
		"gonoc_cycle",
	}
	// The counters and the first snapshot need some simulated cycles;
	// poll the live endpoint until every series has appeared.
	deadline := time.Now().Add(20 * time.Second)
	var body string
	for {
		if resp, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Fatalf("bad /metrics content type %q", ct)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(b)
		}
		missing := ""
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live scrape never served %q; last body:\n%s", missing, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeBindFailureIsSynchronous pins the listener fix: a conflicting
// address must fail the command before any simulation runs, not race in
// a background goroutine.
func TestServeBindFailureIsSynchronous(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = simulate([]string{"-telemetry", ln.Addr().String(), "-cycles", "10", "-warmup", "0"}, nil, make(chan struct{}))
	if err == nil {
		t.Fatal("serve bound an already-used address without error")
	}
}

// TestSimTelemetryScrape covers `noctool sim -telemetry`: after the run,
// the endpoint still serves the final snapshot, and /status's packet
// accounting is consistent.
func TestSimTelemetryScrape(t *testing.T) {
	var addr net.Addr
	args := []string{
		"-width", "4", "-height", "4", "-cycles", "3000", "-warmup", "200",
		"-rate", "0.05", "-inject", "5:sa1:e", "-telemetry", "127.0.0.1:0",
	}
	shutdown, err := simulate(args, func(a net.Addr) { addr = a }, nil)
	defer shutdown()
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if addr == nil {
		t.Fatal("telemetry readiness hook never ran")
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, w := range []string{
		"gonoc_packets_measured_total",
		`gonoc_packet_latency_cycles_bucket{class="all",le="`,
		`gonoc_sa_bypass_grants_total{router="5"`,
	} {
		if !strings.Contains(string(body), w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
	resp, err = http.Get("http://" + addr.String() + "/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Cycle uint64 `json:"cycle"`
		Stats *struct {
			Created  uint64 `json:"created"`
			Ejected  uint64 `json:"ejected"`
			InFlight uint64 `json:"in_flight"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if st.Cycle != 3000 {
		t.Errorf("status cycle = %d, want 3000", st.Cycle)
	}
	if st.Stats == nil {
		t.Fatal("status has no stats snapshot")
	}
	if st.Stats.Created != st.Stats.Ejected+st.Stats.InFlight {
		t.Errorf("packet accounting inconsistent: created %d != ejected %d + in-flight %d",
			st.Stats.Created, st.Stats.Ejected, st.Stats.InFlight)
	}
}

// TestRunCampaignTelemetry exercises the campaign progress-gauge wiring
// end to end (the gauge content itself is pinned in internal/telemetry).
func TestRunCampaignTelemetry(t *testing.T) {
	if err := runCampaign([]string{"-trials", "60", "-telemetry", "127.0.0.1:0"}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
}

// TestRunSpansCommand checks the spans view prints the critical-path
// breakdown and the slowest-packet details.
func TestRunSpansCommand(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := runView("spans")([]string{
		"-width", "4", "-height", "4", "-cycles", "4000", "-warmup", "500",
		"-rate", "0.05", "-inject", "5:sa1:e", "-top", "3",
	})
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("spans: %v", runErr)
	}
	for _, want := range []string{
		"per-packet hop spans",
		"critical path over",
		"switch allocation wait",
		"slowest 3 packets:",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("spans output missing %q; got:\n%s", want, out)
		}
	}
}

func TestRunLatencyTiny(t *testing.T) {
	// A drastically shortened latency run to keep the test fast.
	if err := runLatency([]string{"-suite", "splash2", "-measure", "1500", "-fault-mean", "1200"}); err != nil {
		t.Fatalf("latency: %v", err)
	}
}

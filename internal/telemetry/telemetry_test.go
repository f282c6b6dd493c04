package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

func testNet(o *obs.Observer, workers int) *noc.Network {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	cfg := noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 100, Workers: workers}
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 3)
	return noc.MustNew(cfg, src)
}

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

func TestPrometheusExposition(t *testing.T) {
	o := obs.New(0)
	n := testNet(o, 1)
	defer n.Close()
	srv := NewServer(o.Metrics)
	Attach(srv, n, 256)
	n.Run(2000)
	srv.Publish(n.Stats().Snapshot())
	srv.SetCycle(n.Now())
	srv.SetProgress("campaign", 3, 10)

	body := get(t, srv.Handler(), "/metrics")
	for _, want := range []string{
		"# TYPE gonoc_cycle gauge",
		"gonoc_cycle 2000",
		"gonoc_packets_created_total",
		"gonoc_packets_in_flight",
		"# TYPE gonoc_packet_latency_cycles histogram",
		`gonoc_packet_latency_cycles_bucket{class="all",le="+Inf"}`,
		`gonoc_packet_latency_cycles_count{class="request"}`,
		"# TYPE gonoc_network_latency_cycles histogram",
		"# TYPE gonoc_rc_computes_total counter",
		`gonoc_sa_grants_total{router="5",port="0"}`,
		"# TYPE gonoc_ni_queue_depth gauge",
		`gonoc_progress_done{task="campaign"} 3`,
		`gonoc_progress_total{task="campaign"} 10`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	checkPrometheusSyntax(t, strings.NewReader(body))

	// The histogram's +Inf bucket must equal its _count, and cumulative
	// bucket counts must be monotonic.
	var prev uint64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `gonoc_network_latency_cycles_bucket{le="`) {
			var v uint64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
				t.Fatalf("unparseable bucket line %q", line)
			}
			if v < prev {
				t.Fatalf("bucket counts not monotonic at %q", line)
			}
			prev = v
		}
	}
}

// checkPrometheusSyntax validates the exposition line shapes: comments
// are HELP/TYPE, every sample line is `name[{labels}] value`, and metric
// names are legal.
func checkPrometheusSyntax(t *testing.T, r io.Reader) {
	t.Helper()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("line %d: malformed comment %q", lineno, line)
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp <= 0 {
			t.Errorf("line %d: no sample value in %q", lineno, line)
			continue
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Errorf("line %d: unterminated label set in %q", lineno, line)
			}
			name = series[:i]
		}
		for j, c := range name {
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(j > 0 && c >= '0' && c <= '9')
			if !ok {
				t.Errorf("line %d: illegal metric name %q", lineno, name)
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStatusJSON(t *testing.T) {
	o := obs.New(0)
	n := testNet(o, 1)
	defer n.Close()
	srv := NewServer(o.Metrics)
	n.Run(1500)
	srv.Publish(n.Stats().Snapshot())
	srv.SetCycle(n.Now())
	srv.SetProgress("suite", 1, 4)

	var st Status
	if err := json.Unmarshal([]byte(get(t, srv.Handler(), "/status")), &st); err != nil {
		t.Fatalf("status not valid JSON: %v", err)
	}
	if st.Cycle != 1500 || st.Stats == nil {
		t.Fatalf("status = cycle %d, stats %v", st.Cycle, st.Stats != nil)
	}
	if st.Stats.Created == 0 || st.Stats.Created != st.Stats.Ejected+st.Stats.InFlight {
		t.Errorf("inconsistent packet accounting: %+v", st.Stats)
	}
	if st.Progress["suite"].Total != 4 {
		t.Errorf("progress = %+v", st.Progress)
	}
	if st.Stats.Measured > 0 && st.Stats.Latency.P99 < st.Stats.Latency.P50 {
		t.Errorf("quantiles inverted: %+v", st.Stats.Latency)
	}
}

// TestScrapeWhileSteppingParallel is the race-safety acceptance test:
// scrape /metrics and /status continuously from several goroutines while
// the network steps with a parallel worker pool. Run under -race (CI
// does), this pins that live scraping never touches unsynchronized
// simulation state.
func TestScrapeWhileSteppingParallel(t *testing.T) {
	o := obs.New(1 << 12)
	o.Windows = obs.NewWindows(16, 5, 4, 256, 4)
	o.Flight = obs.NewFlightRecorder(16, 64)
	n := testNet(o, 8)
	defer n.Close()
	srv := NewServer(o.Metrics)
	Attach(srv, n, 64)
	h := srv.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/heatmap?top=8", nil))
			}
		}()
	}
	n.Run(3000)
	close(stop)
	wg.Wait()

	body := get(t, h, "/metrics")
	if !strings.Contains(body, "gonoc_packet_latency_cycles_bucket") {
		t.Error("no latency buckets after parallel run")
	}
}

// TestHeatmapEndpoint is the /heatmap scrape smoke test: the endpoint
// serves the windowed link heatmap as JSON, honors ?top=N, and rejects
// malformed values.
func TestHeatmapEndpoint(t *testing.T) {
	o := obs.New(0)
	o.Windows = obs.NewWindows(16, 5, 4, 256, 4)
	n := testNet(o, 1)
	defer n.Close()
	srv := NewServer(o.Metrics)
	flush := Attach(srv, n, 256)
	n.Run(2000)
	flush()

	var hm Heatmap
	if err := json.Unmarshal([]byte(get(t, srv.Handler(), "/heatmap")), &hm); err != nil {
		t.Fatalf("heatmap not valid JSON: %v", err)
	}
	if hm.Cycle != 2000 || hm.BucketCycles != 256 {
		t.Fatalf("heatmap header = cycle %d, bucket %d; want 2000, 256", hm.Cycle, hm.BucketCycles)
	}
	if hm.WindowCycles == 0 || hm.WindowCycles > 4*256 {
		t.Fatalf("window covers %d cycles, want (0, 1024]", hm.WindowCycles)
	}
	if len(hm.StallKinds) != obs.NumStallKinds {
		t.Fatalf("%d stall kinds, want %d", len(hm.StallKinds), obs.NumStallKinds)
	}
	// The full document carries every (router, port) pair, busy or idle.
	if len(hm.Links) != 16*5 {
		t.Fatalf("full heatmap names %d links, want 80", len(hm.Links))
	}
	var busy int
	for _, l := range hm.Links {
		if l.Flits > 0 {
			busy++
		}
		var perVC uint64
		for _, v := range l.PerVC {
			perVC += v
		}
		if perVC != l.Flits {
			t.Fatalf("link %d/%d: per-VC sum %d != flits %d", l.Node, l.Port, perVC, l.Flits)
		}
	}
	if busy == 0 {
		t.Fatal("no link carried traffic after a loaded run")
	}

	var top Heatmap
	if err := json.Unmarshal([]byte(get(t, srv.Handler(), "/heatmap?top=2")), &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Links) != 2 {
		t.Fatalf("top=2 returned %d links", len(top.Links))
	}
	for _, l := range top.Links {
		if l.Flits == 0 {
			t.Fatalf("top-N kept idle link %d/%d", l.Node, l.Port)
		}
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/heatmap?top=zebra", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad top value returned %d, want 400", rec.Code)
	}

	// Without windows attached the endpoint degrades to an empty document
	// rather than a scrape error.
	bare := NewServer(nil)
	var empty Heatmap
	if err := json.Unmarshal([]byte(get(t, bare.Handler(), "/heatmap")), &empty); err != nil {
		t.Fatalf("windowless heatmap not valid JSON: %v", err)
	}
	if len(empty.Links) != 0 {
		t.Fatalf("windowless heatmap names %d links", len(empty.Links))
	}
}

// TestAttachFlushPublishesFinalSnapshot is the staleness regression: a
// run whose length is not a multiple of the publish interval used to
// leave /status frozen at the last interval boundary. The flush func
// Attach returns must republish the end-of-run state.
func TestAttachFlushPublishesFinalSnapshot(t *testing.T) {
	o := obs.New(0)
	n := testNet(o, 1)
	defer n.Close()
	srv := NewServer(o.Metrics)
	flush := Attach(srv, n, 1024)
	n.Run(1500) // 1500 % 1024 != 0: the hook last published at cycle 1024

	var stale Status
	if err := json.Unmarshal([]byte(get(t, srv.Handler(), "/status")), &stale); err != nil {
		t.Fatal(err)
	}
	want := n.Stats().Snapshot()
	if stale.Stats.Created == want.Created {
		t.Fatal("test is vacuous: no packets created after the last interval boundary")
	}

	flush()
	var fresh Status
	if err := json.Unmarshal([]byte(get(t, srv.Handler(), "/status")), &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Cycle != 1500 {
		t.Fatalf("flushed cycle = %d, want 1500", fresh.Cycle)
	}
	if fresh.Stats.Created != want.Created || fresh.Stats.Ejected != want.Ejected {
		t.Fatalf("flushed stats stale: %+v vs created %d ejected %d",
			fresh.Stats, want.Created, want.Ejected)
	}
}

// TestPrometheusWindowSeries: with windows attached, /metrics carries
// the windowed link-utilization and stall-mix series in valid
// exposition syntax.
func TestPrometheusWindowSeries(t *testing.T) {
	o := obs.New(0)
	o.Windows = obs.NewWindows(16, 5, 4, 256, 4)
	n := testNet(o, 1)
	defer n.Close()
	srv := NewServer(o.Metrics)
	flush := Attach(srv, n, 256)
	n.Run(2000)
	flush()

	body := get(t, srv.Handler(), "/metrics")
	for _, want := range []string{
		"# TYPE gonoc_window_cycles gauge",
		"# TYPE gonoc_link_window_flits gauge",
		"gonoc_link_window_flits{router=",
		`kind="arb_lost"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	checkPrometheusSyntax(t, strings.NewReader(body))
}

func TestListenAndServe(t *testing.T) {
	srv := NewServer(nil)
	srv.SetCycle(42)
	addr, shutdown, err := ListenAndServe("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "gonoc_cycle 42") {
		t.Errorf("live scrape missing cycle gauge:\n%s", b)
	}
	// A second bind on the same concrete address must fail synchronously.
	if _, _, err := ListenAndServe(addr.String(), srv.Handler()); err == nil {
		t.Error("duplicate bind did not fail")
	}
	// Graceful shutdown releases the listener: the same port rebinds
	// immediately (this was the serve-command port-reuse flake) and
	// shutdown is idempotent.
	shutdown()
	shutdown()
	_, shutdown2, err := ListenAndServe(addr.String(), srv.Handler())
	if err != nil {
		t.Fatalf("rebind after shutdown failed: %v", err)
	}
	shutdown2()
}

// TestPublishEmptySnapshot: an all-warmup snapshot renders zero-valued
// histogram series, never NaN or missing families.
func TestPublishEmptySnapshot(t *testing.T) {
	srv := NewServer(nil)
	srv.Publish(stats.NewCollector(sim.Cycle(1000)).Snapshot())
	body := get(t, srv.Handler(), "/metrics")
	if strings.Contains(body, "NaN") {
		t.Error("exposition contains NaN")
	}
	if !strings.Contains(body, `gonoc_packet_latency_cycles_bucket{class="all",le="+Inf"} 0`) {
		t.Error("empty histogram families missing")
	}
	checkPrometheusSyntax(t, strings.NewReader(body))
}

// TestPrometheusFamilyPerKind: a registry holding a sample of every
// obs.Kind exports one family per Kind name, so a Kind added to obs
// reaches the endpoint without a change here.
func TestPrometheusFamilyPerKind(t *testing.T) {
	m := obs.NewMetrics()
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		m.Counter(obs.Key{Kind: k, Router: -1, Port: obs.NoPort, VC: obs.NoVC}).Inc()
	}
	body := get(t, NewServer(m).Handler(), "/metrics")
	families := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[name]++
		}
	}
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		fam := "gonoc_" + strings.ReplaceAll(k.String(), ".", "_") + "_total counter"
		if families[fam] != 1 {
			t.Errorf("Kind %q: %d families %q, want 1", k, families[fam], fam)
		}
		delete(families, fam)
	}
	if len(families) != 1 || families["gonoc_cycle gauge"] != 1 {
		t.Errorf("families besides the Kinds' and gonoc_cycle: %v", families)
	}
}

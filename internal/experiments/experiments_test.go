package experiments

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gonoc/internal/ftrouters"
	"gonoc/internal/workloads"
)

// fastCfg is a reduced configuration for unit tests; the full-scale
// Figure 7/8 runs live in the repository-level benchmarks.
func fastCfg() LatencyConfig {
	return LatencyConfig{
		Width: 4, Height: 4,
		Warmup:    1000,
		Measure:   6000,
		FaultMean: 4000,
		Seed:      7,
	}
}

func TestRunAppFaultyLatencyHigher(t *testing.T) {
	app := workloads.App{Name: "test", Rate: 0.015, ReadFrac: 0.7, Burstiness: 0.3, MemFrac: 0.25}
	pt := RunApp(app, fastCfg())
	if pt.FaultFree <= 0 || pt.Faulty <= 0 {
		t.Fatalf("degenerate latencies: %+v", pt)
	}
	if pt.Faults == 0 {
		t.Fatal("no faults injected in faulty run")
	}
	if pt.Faulty <= pt.FaultFree {
		t.Fatalf("faulty latency %.1f not above fault-free %.1f", pt.Faulty, pt.FaultFree)
	}
	wantDelta := (pt.Faulty - pt.FaultFree) / pt.FaultFree * 100
	if math.Abs(pt.DeltaPct-wantDelta) > 1e-9 {
		t.Fatalf("DeltaPct %v inconsistent", pt.DeltaPct)
	}
}

func TestRunSuiteAggregates(t *testing.T) {
	apps := workloads.SPLASH2()[:3]
	res := RunSuite("mini", apps, fastCfg())
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.OverallDeltaPct <= 0 {
		t.Fatalf("overall delta %.2f%% not positive under faults", res.OverallDeltaPct)
	}
	if res.String() == "" || FormatSuite(res) == "" {
		t.Fatal("empty rendering")
	}
}

func TestRunAppDeterministic(t *testing.T) {
	app := workloads.PARSEC()[0]
	a := RunApp(app, fastCfg())
	b := RunApp(app, fastCfg())
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestRunSuiteWorkerInvariant pins the suite's unit of work: a suite is
// one flat list of simulations, so its points do not depend on
// LatencyConfig.Workers (1, 2, an odd 3 against four jobs, 0 = all
// cores) and never more than Workers simulations are in flight — no
// nested fan-out under the sweep. RunApp is the two-job case of the same
// function, returns the suite's point, and runs its pair back to back at
// every Workers: its host time must not hang on a second core being free.
func TestRunSuiteWorkerInvariant(t *testing.T) {
	apps := workloads.SPLASH2()[:2]
	cfg := fastCfg()
	cfg.Warmup, cfg.Measure, cfg.FaultMean = 300, 1200, 600
	cfg.Workers = 1
	want := RunSuite("mini", apps, cfg)
	for _, p := range want.Points {
		if p.Faults == 0 || !(p.FaultFree > 0) || p.Faulty == p.FaultFree {
			t.Fatalf("degenerate point %+v: the invariant would compare nothing", p)
		}
	}
	for _, workers := range []int{2, 3, 0} {
		cfg.Workers = workers
		var inFlight, peak, runs atomic.Int32
		counting := func(app workloads.App, c LatencyConfig, faulty bool) latencyRun {
			now := inFlight.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			defer inFlight.Add(-1)
			runs.Add(1)
			return simulate(app, c, faulty)
		}
		points := runApps(apps, cfg, counting)
		if !reflect.DeepEqual(points, want.Points) {
			t.Errorf("Workers=%d: points %+v, Workers=1 gave %+v", workers, points, want.Points)
		}
		limit := workers
		if limit == 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		if got := int(peak.Load()); got > limit || runs.Load() != int32(2*len(apps)) {
			t.Errorf("Workers=%d: %d simulations in flight at once over %d runs, want at most %d over %d",
				workers, got, runs.Load(), limit, 2*len(apps))
		}
		if got := RunSuite("mini", apps, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d: RunSuite %+v, Workers=1 gave %+v", workers, got, want)
		}
		for i, app := range apps {
			if got := RunApp(app, cfg); got != want.Points[i] {
				t.Errorf("Workers=%d: RunApp(%s) = %+v, the suite's point is %+v", workers, app.Name, got, want.Points[i])
			}
			peak.Store(0)
			runs.Store(0)
			if got := runApp(app, cfg, counting); got != want.Points[i] || peak.Load() != 1 || runs.Load() != 2 {
				t.Errorf("Workers=%d: runApp(%s) = %+v with %d simulations in flight at once over %d runs, want %+v with 1 over 2",
					workers, app.Name, got, peak.Load(), runs.Load(), want.Points[i])
			}
		}
	}
}

func TestReliabilityReport(t *testing.T) {
	r := Reliability()
	if math.Abs(r.Baseline.Total()-2822.5) > 1e-6 {
		t.Errorf("Table I total %v", r.Baseline.Total())
	}
	if math.Abs(r.Correction.Total()-646) > 1e-6 {
		t.Errorf("Table II total %v", r.Correction.Total())
	}
	if r.Improvement < 6 || r.Improvement > 6.4 {
		t.Errorf("improvement %v not ≈6", r.Improvement)
	}
	txt := FormatReliability(r)
	for _, want := range []string{"Table I", "Table II", "Eq. 4", "Eq. 7"} {
		if !strings.Contains(txt, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAreaReport(t *testing.T) {
	a := Area()
	if math.Abs(a.AreaOverhead-0.31) > 0.01 || math.Abs(a.PowerOverhead-0.30) > 0.01 {
		t.Errorf("overheads %.3f/%.3f, want ≈0.31/0.30", a.AreaOverhead, a.PowerOverhead)
	}
	txt := FormatArea(a)
	if !strings.Contains(txt, "critical path") {
		t.Errorf("area report missing critical path: %s", txt)
	}
}

func TestSPFTable(t *testing.T) {
	rows := SPFTable()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Design != "Proposed Router" || math.Abs(last.SPF-11.4) > 0.15 {
		t.Fatalf("proposed row %+v", last)
	}
	if !strings.Contains(FormatSPF(rows), "BulletProof") {
		t.Fatal("Table III rendering missing rows")
	}
}

func TestSPFVCSweep(t *testing.T) {
	rows := SPFVCSweep([]int{2, 4, 6, 8})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[0].SPF-7.0) > 0.5 {
		t.Errorf("2-VC SPF %v, want ≈7", rows[0].SPF)
	}
	if math.Abs(rows[1].SPF-11.4) > 0.15 {
		t.Errorf("4-VC SPF %v, want ≈11.4", rows[1].SPF)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SPF <= rows[i-1].SPF {
			t.Errorf("SPF not increasing with VCs: %v", rows)
		}
	}
}

func TestCampaignTable(t *testing.T) {
	rows := CampaignTable(400, 9, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The designs run as parallel sweep jobs; the table must not depend on
	// how many actually ran at once.
	if serial := CampaignTable(400, 9, 1); !reflect.DeepEqual(rows, serial) {
		t.Fatalf("campaign table depends on worker count:\n%v\nvs\n%v", rows, serial)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Design] = r.Mean
	}
	// The ordering the paper's Table III implies: BulletProof < RoCo <
	// Vicis < proposed.
	if !(byName["BulletProof"] < byName["RoCo"] &&
		byName["RoCo"] < byName["Vicis"] &&
		byName["Vicis"] < byName["Proposed Router"]) {
		t.Fatalf("campaign ordering wrong: %v", byName)
	}
	// The proposed router's row is pinned to its seeded values from when
	// it was copied field by field out of fault's own result type.
	got := rows[3]
	got.StdDev = 0
	want := ftrouters.CampaignResult{Design: "Proposed Router", Trials: 400, Mean: 10.5925,
		Min: 2, Max: 26, P50: 10, P95: 18, P99: 21}
	if got != want {
		t.Errorf("proposed-router row moved:\n got %+v\nwant %+v", got, want)
	}
}

package experiments

import (
	"math"
	"reflect"
	"strings"
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

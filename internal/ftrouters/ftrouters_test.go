package ftrouters

import (
	"math"
	"testing"
)

func TestBulletProofCalibration(t *testing.T) {
	// Published: mean 3.15 faults to failure.
	res := FaultsToFailure(NewBulletProof(), 20000, 1)
	if math.Abs(res.Mean-3.15) > 0.15 {
		t.Errorf("BulletProof mean = %v, want ≈3.15", res.Mean)
	}
	if res.Min < 2 {
		t.Errorf("BulletProof died after %d fault(s); NMR must survive one", res.Min)
	}
}

func TestVicisCalibration(t *testing.T) {
	// Published: mean 9.3 faults to failure.
	res := FaultsToFailure(NewVicis(), 20000, 2)
	if math.Abs(res.Mean-9.3) > 0.45 {
		t.Errorf("Vicis mean = %v, want ≈9.3", res.Mean)
	}
	if res.Min < 2 {
		t.Errorf("Vicis died after %d fault(s); ECC must absorb one", res.Min)
	}
}

func TestRoCoCalibration(t *testing.T) {
	// Deduced in the paper: mean 5.5 faults to failure.
	res := FaultsToFailure(NewRoCo(), 20000, 3)
	if math.Abs(res.Mean-5.5) > 0.4 {
		t.Errorf("RoCo mean = %v, want ≈5.5", res.Mean)
	}
	// Graceful degradation: one half dying never kills RoCo.
	if res.Min < 2 {
		t.Errorf("RoCo died after %d fault(s)", res.Min)
	}
}

func TestRoCoGracefulDegradation(t *testing.T) {
	// Kill the entire row half: the column half keeps the router alive.
	rc := NewRoCo()
	inst := rc.NewInstance()
	perHalf := rc.NumSites() / 2
	for s := 0; s < perHalf; s++ {
		inst.Inject(s)
	}
	if !inst.Functional() {
		t.Fatal("RoCo failed with only the row half dead")
	}
	inst.Inject(perHalf) // first fragile hit in column half? site perHalf is tolerant
	// Kill the column half outright via its fragile unit.
	inst.Inject(2*perHalf - 1)
	if inst.Functional() {
		t.Fatal("RoCo functional with both halves dead")
	}
}

func TestVicisMechanisms(t *testing.T) {
	v := NewVicis()
	inst := v.NewInstance().(*vicisInstance)
	// One fault in every ECC unit: still functional.
	for u := 0; u < v.ECCUnits; u++ {
		inst.Inject(u)
	}
	if !inst.Functional() {
		t.Fatal("Vicis failed with one correctable fault per ECC unit")
	}
	// One crossbar mux fault: covered by the bypass bus.
	inst.Inject(2 * v.ECCUnits)
	if !inst.Functional() {
		t.Fatal("Vicis failed on a single crossbar fault")
	}
	// Second crossbar mux fault: fatal.
	inst.Inject(2*v.ECCUnits + 1)
	if inst.Functional() {
		t.Fatal("Vicis survived two crossbar faults")
	}
}

func TestVicisBusFault(t *testing.T) {
	v := NewVicis()
	inst := v.NewInstance()
	inst.Inject(v.NumSites() - 1) // bus alone: harmless
	if !inst.Functional() {
		t.Fatal("Vicis failed on bus fault alone")
	}
	inst.Inject(2 * v.ECCUnits) // mux fault with broken bus: fatal
	if inst.Functional() {
		t.Fatal("Vicis survived mux fault with broken bypass bus")
	}
}

func TestBulletProofPairSemantics(t *testing.T) {
	b := NewBulletProof()
	inst := b.NewInstance()
	// One fault per group: functional.
	for g := 0; g < b.Groups; g++ {
		inst.Inject(g)
	}
	if !inst.Functional() {
		t.Fatal("BulletProof failed with one fault per group")
	}
	inst.Inject(b.Groups) // second copy of group 0
	if inst.Functional() {
		t.Fatal("BulletProof survived a dead group")
	}
}

func TestTableIII(t *testing.T) {
	rows := TableIII(0.31)
	if len(rows) != 4 {
		t.Fatalf("Table III has %d rows", len(rows))
	}
	want := map[string]float64{
		"BulletProof":     2.07,
		"Vicis":           6.55,
		"RoCo":            5.5,
		"Proposed Router": 11.45,
	}
	spf := map[string]float64{}
	for _, r := range rows {
		spf[r.Design] = r.SPF
	}
	for name, w := range want {
		if math.Abs(spf[name]-w) > 0.05 {
			t.Errorf("%s SPF = %v, want ≈%v", name, spf[name], w)
		}
	}
	// The headline comparison: the proposed router beats every
	// comparator.
	for name, v := range spf {
		if name != "Proposed Router" && v >= spf["Proposed Router"] {
			t.Errorf("%s SPF %v >= proposed %v", name, v, spf["Proposed Router"])
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := FaultsToFailure(NewVicis(), 500, 9)
	b := FaultsToFailure(NewVicis(), 500, 9)
	if a != b {
		t.Fatalf("campaign not deterministic")
	}
	// Pinned to the seeded result from before the proposed router's loop
	// was merged into this one.
	if math.Abs(a.StdDev-3.969110227746261) > 1e-9 {
		t.Errorf("StdDev = %v, want 3.969110227746261", a.StdDev)
	}
	a.StdDev = 0
	want := CampaignResult{Design: "Vicis", Trials: 500, Mean: 9.358, Min: 2, Max: 22, P50: 9, P95: 16, P99: 20}
	if a != want {
		t.Errorf("seeded campaign moved:\n got %+v\nwant %+v", a, want)
	}
}

// TestCampaignPercentilesAndProgress checks the percentile fields are
// ordered and bounded by the extremes, and that the progress callback
// fires once per trial without perturbing the result.
func TestCampaignPercentilesAndProgress(t *testing.T) {
	plain := FaultsToFailure(NewVicis(), 400, 9)
	var calls, lastDone, lastTotal int
	observed := FaultsToFailureObserved(NewVicis(), 400, 9, func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	})
	if plain != observed {
		t.Fatalf("progress callback changed the result: %+v vs %+v", plain, observed)
	}
	if calls != 400 || lastDone != 400 || lastTotal != 400 {
		t.Errorf("callback fired %d times, last (%d/%d), want 400 (400/400)", calls, lastDone, lastTotal)
	}
	if plain.P50 < plain.Min || plain.P99 > plain.Max || plain.P50 > plain.P95 || plain.P95 > plain.P99 {
		t.Errorf("percentiles inconsistent: %+v", plain)
	}
	if plain.P50 == 0 {
		t.Errorf("p50 = 0 over %d trials", plain.Trials)
	}
}

package modelcheck

import (
	"strings"
	"testing"

	"gonoc/internal/noc"
)

// goldenGraph pins the explored graph, not just the verdict, of all 22
// scenarios of the 2x2 mesh and torus single-fault sweeps without
// retransmission (393,984 states in total): generated from the commit
// before snapshot recycling and dense explorer bookkeeping went in, so
// any change to Explore, Snapshot/Restore or the canonical encoding
// that merges, splits, loses or reorders states fails here even when
// every verdict still reads PROVED.
var goldenGraph = map[string]struct{ states, transitions, terminals, deepest, expected int }{
	"ring-2x2":                {27224, 34834, 15, 17, 4},
	"ring-2x2/link-0-E":       {33596, 43581, 20, 24, 4},
	"ring-2x2/link-0-S":       {27224, 34834, 15, 17, 4},
	"ring-2x2/link-1-S":       {27224, 34834, 15, 17, 4},
	"ring-2x2/link-2-E":       {24896, 33207, 12, 28, 4},
	"ring-2x2/router-0":       {990, 1692, 8, 17, 2},
	"ring-2x2/router-1":       {940, 1640, 8, 17, 2},
	"ring-2x2/router-2":       {1275, 2178, 11, 17, 2},
	"ring-2x2/router-3":       {1319, 2233, 11, 17, 2},
	"ring-2x2-torus":          {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/link-0-E": {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/link-0-S": {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/link-1-E": {27102, 34684, 22, 22, 4},
	"ring-2x2-torus/link-1-S": {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/link-2-E": {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/link-2-S": {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/link-3-E": {27102, 34684, 22, 22, 4},
	"ring-2x2-torus/link-3-S": {27224, 34834, 15, 17, 4},
	"ring-2x2-torus/router-0": {990, 1692, 8, 17, 2},
	"ring-2x2-torus/router-1": {940, 1640, 8, 17, 2},
	"ring-2x2-torus/router-2": {1275, 2178, 11, 17, 2},
	"ring-2x2-torus/router-3": {1319, 2233, 11, 17, 2},
}

// checkGolden compares one sweep result with its goldenGraph row.
func checkGolden(t *testing.T, res Result) {
	t.Helper()
	want, ok := goldenGraph[res.Scenario.Name]
	if !ok {
		t.Errorf("%s: no golden row", res.Scenario.Name)
		return
	}
	got := want
	got.states, got.transitions, got.terminals = res.States, res.Transitions, res.Terminals
	got.deepest, got.expected = res.Deepest, res.Expected
	if got != want {
		t.Errorf("%s: explored graph %+v, golden %+v", res.Scenario.Name, got, want)
	}
	if res.PeakFrontier < 1 || res.PeakFrontier >= res.States {
		t.Errorf("%s: implausible peak frontier %d for %d states", res.Scenario.Name, res.PeakFrontier, res.States)
	}
}

// TestGoldenGraphTable guards the table itself: 22 rows summing to the
// state count the benchmark's check_2x2 workload reports at full scale.
func TestGoldenGraphTable(t *testing.T) {
	total := 0
	for _, g := range goldenGraph {
		total += g.states
	}
	if len(goldenGraph) != 22 || total != 393984 {
		t.Errorf("golden table has %d rows and %d states, want 22 and 393984", len(goldenGraph), total)
	}
}

// TestExploreRing2x2FaultFree exhausts the fault-free 2x2 ring and
// requires a proof: every interleaving of the four injections with
// ticking delivers all four packets and drains.
func TestExploreRing2x2FaultFree(t *testing.T) {
	res, err := Explore(Ring(2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Proved {
		t.Fatalf("verdict %v, want PROVED: %s", res.Verdict, res.Detail)
	}
	if res.Expected != 4 {
		t.Errorf("expected-delivery obligation %d, want 4", res.Expected)
	}
	if res.States < 10 || res.Terminals < 1 {
		t.Errorf("implausible exploration: %d states, %d terminals", res.States, res.Terminals)
	}
	t.Logf("fault-free 2x2: %d states, %d transitions, depth %d in %v",
		res.States, res.Transitions, res.Deepest, res.Elapsed)
}

// TestExploreRing2x2SingleFaultSweep proves delivery and deadlock
// freedom for the 2x2 ring under every single link fault and every
// single router fault, with NI retransmission armed — the model-checked
// counterpart of the statistical single-fault delivery suite in
// internal/noc. Under -short it proves the fault-free network, the first
// link fault and the first router fault (3 of the 9 scenarios); the full
// sweep is what tier-1 and CI run.
func TestExploreRing2x2SingleFaultSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("retransmission countdown state defeats cross-time merging; too slow under -race (the CI modelcheck tier runs it without the detector)")
	}
	base := Ring(2, 2)
	base.Retx = noc.RetxConfig{Timeout: 64, MaxRetries: 2}
	sweep := SingleFaultSweep(base)
	if testing.Short() {
		sweep = []Scenario{sweep[0], sweep[1], sweep[len(sweep)-4]}
	}
	for _, sc := range sweep {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Explore(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Proved {
				t.Fatalf("verdict %v, want PROVED: %s\n%s", res.Verdict, res.Detail, FormatCounterexample(res))
			}
			t.Logf("%s: %d states, expected %d, %v", sc.Name, res.States, res.Expected, res.Elapsed)
		})
	}
}

// TestExploreRing2x2TorusSingleFaultSweep proves delivery and deadlock
// freedom for the 2x2 ring on a torus under every single link fault —
// the wrap links included — and every single router fault: the
// exhaustive proof that the dateline-aware detour tables (routing.go's
// wrap-link rule) are deadlock free. Static faults on the ring workload
// never lose a packet, so retransmission stays off and the state spaces
// stay exhaustible in seconds.
func TestExploreRing2x2TorusSingleFaultSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("13 exhaustive scenarios are too slow under -race (the CI modelcheck tier runs the torus sweep without the detector)")
	}
	if testing.Short() {
		t.Skip("13 exhaustive scenarios; skipped in -short")
	}
	sweep := SingleFaultSweep(RingOn("torus", 2, 2))
	// Fault free + 8 links (every torus node has both an E and an S
	// ring link) + 4 routers.
	if len(sweep) != 13 {
		t.Fatalf("torus sweep has %d scenarios, want 13", len(sweep))
	}
	for _, sc := range sweep {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Explore(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Proved {
				t.Fatalf("verdict %v, want PROVED: %s\n%s", res.Verdict, res.Detail, FormatCounterexample(res))
			}
			checkGolden(t, res)
			t.Logf("%s: %d states, expected %d, %v", sc.Name, res.States, res.Expected, res.Elapsed)
		})
	}
}

// TestExploreRing2x2Baseline exhausts the 2x2 ring on the unprotected
// baseline router: the deadlock-freedom and delivery proofs must hold
// with the FT mechanisms compiled out, not just worked around.
func TestExploreRing2x2Baseline(t *testing.T) {
	sc := Ring(2, 2)
	sc.Name = "ring-2x2-baseline"
	sc.FaultTolerant = false
	res, err := Explore(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Proved {
		t.Fatalf("verdict %v, want PROVED: %s", res.Verdict, res.Detail)
	}
	if res.Expected != 4 {
		t.Errorf("expected-delivery obligation %d, want 4", res.Expected)
	}
	t.Logf("baseline 2x2: %d states, depth %d in %v", res.States, res.Deepest, res.Elapsed)
}

// TestExploreRing2x3 runs a bounded exploration of the 2x3 ring. Six
// concurrent injections blow the space far past exhaustive reach (tens
// of millions of states), so this is a bounded model check: within the
// state cap no deadlock, livelock, or delivery violation may surface.
// A violation verdict fails regardless of the bound; -short skips it.
func TestExploreRing2x3(t *testing.T) {
	if testing.Short() {
		t.Skip("2x3 bounded exploration in -short mode")
	}
	if raceEnabled {
		t.Skip("65k-state bounded exploration is too slow under -race; the plain test run covers it")
	}
	res, err := Explore(Ring(2, 3), Options{MaxStates: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Proved && res.Verdict != Exhausted {
		t.Fatalf("verdict %v within the bound, want PROVED or EXHAUSTED: %s\n%s",
			res.Verdict, res.Detail, FormatCounterexample(res))
	}
	if res.States < 1<<15 {
		t.Errorf("bounded run explored only %d states; the bound should be reachable", res.States)
	}
	t.Logf("bounded 2x3: %v after %d states, %d transitions, depth %d in %v",
		res.Verdict, res.States, res.Transitions, res.Deepest, res.Elapsed)
}

// sabotageScenario is a configuration a single lost credit genuinely
// kills: three packets cross the same link in sequence through depth-1
// single-VC buffers, so once the explorer discards the credit returned
// by an earlier packet, the followers can never be granted the link
// again.
func sabotageScenario() Scenario {
	return Scenario{
		Name:          "sabotage-credit-loss",
		Width:         2,
		Height:        2,
		FaultTolerant: true,
		VCs:           1,
		Classes:       1,
		Depth:         1,
		SabotageNode:  0,
		Packets: []Packet{
			{Src: 0, Dst: 1, Size: 1},
			{Src: 0, Dst: 1, Size: 1},
			{Src: 0, Dst: 1, Size: 1},
		},
	}
}

// TestSabotageFindsDeadlock arms the credit-loss sabotage transition —
// a flow-control corruption the design does not claim to tolerate —
// and requires the checker to find the resulting deadlock and emit a
// replayable counterexample. This is the tier's self-test: a checker
// that cannot find a planted deadlock proves nothing when it reports
// PROVED elsewhere.
func TestSabotageFindsDeadlock(t *testing.T) {
	sc := sabotageScenario()
	res, err := Explore(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Deadlocked {
		t.Fatalf("verdict %v, want DEADLOCK (detail: %s)", res.Verdict, res.Detail)
	}
	// Breadth-first exploration returns a minimal-depth counterexample;
	// the length and graph size are the parent commit's.
	if len(res.Counterexample) != 14 || res.States != 56 || res.Transitions != 131 {
		t.Fatalf("counterexample of %d choices after %d states and %d transitions, want 14, 56 and 131:\n%v",
			len(res.Counterexample), res.States, res.Transitions, res.Counterexample)
	}

	// The counterexample must be genuine: replaying it from scratch
	// must land in a state that retains traffic and that ticking does
	// not change.
	n, err := Replay(sc, res.Counterexample, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Stats().InFlight() == 0 {
		t.Error("replayed counterexample state holds no stuck traffic")
	}
	before := n.StateHash()
	n.Step()
	if after := n.StateHash(); after != before {
		t.Errorf("replayed state is not quiescent: hash %016x -> %016x", before, after)
	}

	report := FormatCounterexample(res)
	for _, want := range []string{"DEADLOCK", "sabotage(node=0)", "replayed end state"} {
		if !strings.Contains(report, want) {
			t.Errorf("counterexample report missing %q:\n%s", want, report)
		}
	}
}

// TestCheckMeshSweep drives the public sweep entry point the CLI and CI
// use, on the smallest mesh. CheckMesh always runs all nine scenarios, so
// -short leaves the 2x2 proofs to the tests above.
func TestCheckMeshSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("9 exhaustive scenarios; skipped in -short")
	}
	results, err := CheckMesh(2, 2, noc.RetxConfig{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fault free + 4 links + 4 routers.
	if len(results) != 9 {
		t.Fatalf("sweep ran %d scenarios, want 9", len(results))
	}
	for _, r := range results {
		if r.Verdict != Proved {
			t.Errorf("%s: %v (%s)", r.Scenario.Name, r.Verdict, r.Detail)
		}
		checkGolden(t, r)
	}
	if out := FormatResults(results); !strings.Contains(out, "PROVED") {
		t.Errorf("formatted sweep lacks verdicts:\n%s", out)
	}
}

// TestMonteCarloRing3x3 samples the 3x3 ring — beyond exhaustive
// reach — and requires zero delivery violations with a meaningful
// Chernoff bound.
func TestMonteCarloRing3x3(t *testing.T) {
	walks := 128
	if testing.Short() {
		walks = 24
	}
	res, err := MonteCarlo(Ring(3, 3), MCOptions{Walks: walks, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d delivery violations in %d random walks; first: %v",
			res.Violations, res.Walks, res.FirstViolation)
	}
	if res.Bound <= 0 || res.Bound >= 1 {
		t.Errorf("degenerate violation-probability bound %g", res.Bound)
	}
	t.Logf("%s", res)
}

// TestMonteCarloFindsSabotageDeadlock checks the sampled mode can also
// detect the planted credit-loss failure, reporting the walk that hit
// it.
func TestMonteCarloFindsSabotageDeadlock(t *testing.T) {
	res, err := MonteCarlo(sabotageScenario(), MCOptions{Walks: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("random walks never hit the planted credit-loss deadlock")
	}
	if res.FirstViolation == nil {
		t.Fatal("violation counted but no walk trace recorded")
	}
}

// TestExploreBudgetExhaustion checks the resource-bound path: a state
// cap far below the space's size must yield EXHAUSTED, not a bogus
// proof.
func TestExploreBudgetExhaustion(t *testing.T) {
	res, err := Explore(Ring(2, 2), Options{MaxStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Exhausted {
		t.Fatalf("verdict %v under an 8-state cap, want EXHAUSTED", res.Verdict)
	}
}

// TestScenarioValidation rejects malformed scenarios instead of
// exploring garbage.
func TestScenarioValidation(t *testing.T) {
	sc := Ring(2, 2)
	sc.Packets[0].Dst = 99
	if _, err := Explore(sc, Options{}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	sc = Ring(2, 2)
	sc.Packets[0].Size = 0
	if _, err := Explore(sc, Options{}); err == nil {
		t.Error("zero-size packet accepted")
	}
	sc = Ring(2, 2)
	sc.SabotageNode = 99
	if _, err := Explore(sc, Options{}); err == nil {
		t.Error("out-of-range sabotage node accepted")
	}
}

// BenchmarkExplore times the fault-free 2x2 proof, the unit the
// benchmark's check_2x2 workload repeats: B/op over 34,834 transitions
// is the heap cost of one explored transition.
func BenchmarkExplore(b *testing.B) {
	b.ReportAllocs()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := Explore(Ring(2, 2), Options{})
		if err != nil || res.Verdict != Proved {
			b.Fatalf("verdict %v, err %v", res.Verdict, err)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

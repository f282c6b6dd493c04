package modelcheck

import (
	"fmt"
	"strings"

	"gonoc/internal/noc"
)

// CheckTopo runs the standard verification sweep for a w x h grid of
// topology family topo ("" is the mesh): the ring scenario fault free,
// then under every single link fault and every single router fault, each
// explored exhaustively under opt. It stops at the first violation. On
// the torus it sweeps every ring link including the wraps, proving the
// dateline-aware detour tables deadlock free and fully delivering under
// every single fault site. This is what `noctool check` runs.
func CheckTopo(topo string, w, h int, retx noc.RetxConfig, opt Options) ([]Result, error) {
	base := RingOn(topo, w, h)
	base.Retx = retx
	var out []Result
	for _, sc := range SingleFaultSweep(base) {
		res, err := Explore(sc, opt)
		if err != nil {
			return out, fmt.Errorf("%s: %w", sc.Name, err)
		}
		out = append(out, res)
		if res.Verdict == Deadlocked || res.Verdict == Livelocked {
			return out, nil
		}
	}
	return out, nil
}

// StatesPerSec is the exploration rate: distinct states discovered per
// second of wall-clock time, 0 when no time was measured.
func (r Result) StatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.States) / r.Elapsed.Seconds()
}

// FormatBytes renders a heap size the way the results table does: in
// MB with one decimal.
func FormatBytes(n int) string { return fmt.Sprintf("%.1fMB", float64(n)/(1<<20)) }

// FormatResults renders a sweep outcome as a one-line-per-scenario
// table — graph size, peak frontier in states and in bytes, node
// records included (what bounds memory), wall-clock time and states/s
// (what bounds patience) —
// plus, for a failed scenario, the full counterexample report.
func FormatResults(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%-28s %-9s %8d states %9d transitions  depth %-4d frontier %-6d %8s %8s %7.0f states/s  %s\n",
			r.Scenario.Name, r.Verdict, r.States, r.Transitions, r.Deepest, r.PeakFrontier,
			FormatBytes(r.PeakFrontierBytes), r.Elapsed.Round(1000000), r.StatesPerSec(), r.Detail)
	}
	for _, r := range results {
		if len(r.Counterexample) > 0 {
			b.WriteString("\n")
			b.WriteString(FormatCounterexample(r))
		}
	}
	return b.String()
}

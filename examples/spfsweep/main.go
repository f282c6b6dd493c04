// Spfsweep reproduces the paper's Section VIII: the Table III SPF
// comparison against BulletProof, Vicis and RoCo, the SPF-vs-VC-count
// corollary, and — beyond the paper's theoretical analysis — Monte-Carlo
// faults-to-failure campaigns on the actual router models.
package main

import (
	"fmt"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/reliability"
	"gonoc/internal/router"
)

func main() {
	fmt.Print(experiments.FormatSPF(experiments.SPFTable()))
	fmt.Println()

	fmt.Println("SPF vs virtual channels (Section VIII-E: 7 @ 2 VCs, 11.4 @ 4 VCs)")
	for _, r := range experiments.SPFVCSweep([]int{2, 3, 4, 6, 8}) {
		fmt.Printf("  %-26s area +%4.1f%%  mean faults %5.1f  SPF %5.2f\n",
			r.Design, r.AreaOverhead*100, r.MeanFaults, r.SPF)
	}
	fmt.Println()

	const trials = 10_000
	fmt.Printf("Monte-Carlo faults-to-failure (%d trials per design)\n", trials)
	for _, r := range experiments.CampaignTable(trials, 1, 0) {
		fmt.Printf("  %-16s mean %5.2f  range [%d, %d]\n", r.Design, r.Mean, r.Min, r.Max)
	}
	fmt.Println()

	// The theoretical bounds behind the proposed router's row, and how
	// the two site universes differ (see internal/fault).
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	min, max := reliability.FaultBounds(cfg.Ports, cfg.VCs)
	fmt.Printf("theoretical bounds (Section VIII-E): min %d, max %d, mean %.1f\n",
		min, max, float64(min+max)/2)
	full := fault.FaultsToFailure(cfg, trials, 2, fault.UniverseAll)
	fmt.Printf("full site universe (incl. VA2/SA2 arbiters): mean %.2f, range [%d, %d]\n",
		full.Mean, full.Min, full.Max)
	fmt.Println("(the real router tolerates more faults than the paper's conservative count)")
}

package fault_test

import (
	"fmt"

	"gonoc/internal/fault"
	"gonoc/internal/router"
)

// ExampleFaultsToFailure runs the Monte-Carlo faults-to-failure campaign
// on the paper's protected router, 10,000 trials over each site
// universe. Drawing also from the VA and SA stage-2 arbiters, which the
// paper's SPF analysis does not count, some trials survive more faults
// than the Section VIII-E maximum of 28.
func ExampleFaultsToFailure() {
	cfg := router.DefaultConfig()
	cfg.FaultTolerant = true
	for _, u := range []struct {
		name string
		u    fault.Universe
	}{{"paper", fault.UniversePaper}, {"all", fault.UniverseAll}} {
		r := fault.FaultsToFailure(cfg, 10_000, 2, u.u)
		fmt.Printf("%-5s sites: mean %.2f, range [%d, %d]\n", u.name, r.Mean, r.Min, r.Max)
	}
	// Output:
	// paper sites: mean 10.48, range [2, 27]
	// all   sites: mean 10.56, range [2, 30]
}

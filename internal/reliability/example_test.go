package reliability_test

import (
	"fmt"

	"gonoc/internal/reliability"
)

// Example reproduces the paper's Section VII headline: the protected
// router's MTTF is about six times the baseline's.
func Example() {
	lib := reliability.DefaultFITLibrary()
	spec := reliability.PaperSpec()
	fmt.Printf("baseline FIT:  %.1f\n", lib.StageFIT(reliability.Baseline(spec)).Total())
	fmt.Printf("correction FIT: %.1f\n", lib.StageFIT(reliability.Correction(spec)).Total())
	fmt.Printf("improvement:   %.2fx\n", reliability.Improvement(lib, spec))
	// Output:
	// baseline FIT:  2822.5
	// correction FIT: 646.0
	// improvement:   6.18x
}

// ExampleAnalyzeSPF computes the proposed router's Table III row.
func ExampleAnalyzeSPF() {
	r := reliability.AnalyzeSPF(5, 4, 0.31)
	fmt.Printf("faults to failure: min %d, max %d, mean %.0f\n", r.MinToFail, r.MaxToFail, r.MeanFaults)
	fmt.Printf("SPF: %.1f\n", r.SPF)
	// Output:
	// faults to failure: min 2, max 28, mean 15
	// SPF: 11.5
}

// Reliability recomputes the paper's Section VII analysis from first
// principles: the FORC/TDDB physics, the component FIT library, Tables I
// and II, and the MTTF equations 4–7 — showing each step of the
// derivation rather than just the final table.
package main

import (
	"fmt"

	"gonoc/internal/experiments"
	"gonoc/internal/reliability"
)

func main() {
	params := reliability.DefaultTDDBParams()
	fmt.Println("Step 1 — FORC TDDB physics (Equation 2)")
	fmt.Printf("  FORC(1.0 V, 300 K)      = %.4f FIT\n", params.FORC(1.0, 300))
	fmt.Printf("  FIT per FET (100%% duty) = %.4f FIT (calibration point)\n",
		params.FITPerFET(1, 1.0, 300))
	fmt.Printf("  at 350 K                = %.4f FIT (temperature acceleration)\n",
		params.FITPerFET(1, 1.0, 350))
	fmt.Println()

	lib := reliability.DefaultFITLibrary()
	fmt.Println("Step 2 — component FIT library (transistor count × FIT/FET)")
	for _, p := range []reliability.Part{
		reliability.Comparator6, reliability.Arb4, reliability.Arb20,
		reliability.Mux4x1, reliability.Mux5x1x32, reliability.DFFBit,
	} {
		fmt.Printf("  %-18s %5d FETs  →  %6.1f FIT\n",
			p.String(), reliability.Transistors(p), lib.FIT(p))
	}
	fmt.Println()

	fmt.Println("Step 3 — SOFR composition of the pipeline (Tables I & II) and MTTF")
	fmt.Print(experiments.FormatReliability(experiments.Reliability()))
	fmt.Println()

	fmt.Println("Step 4 — sensitivity: MTTF improvement across operating points")
	spec := reliability.PaperSpec()
	for _, t := range []float64{300, 325, 350} {
		l := reliability.NewFITLibrary(params, 1.0, 1.0, t)
		fmt.Printf("  T=%3.0f K: baseline %8.0f h, protected %9.0f h, improvement %.2f×\n",
			t,
			reliability.MTTFBaseline(l, spec),
			reliability.MTTFProtected(l, spec),
			reliability.Improvement(l, spec))
	}
}

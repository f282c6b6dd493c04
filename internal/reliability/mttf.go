package reliability

// This file implements the paper's Section VII: MTTF of the baseline
// pipeline (Equation 4), of the two-component protected router
// (Equations 5–6) and the reliability improvement ratio (Equation 7).

// MTTFBaseline returns Equation 4: the MTTF in hours of the unprotected
// pipeline, 10⁹ divided by the SOFR sum of Table I.
func MTTFBaseline(lib *FITLibrary, spec RouterSpec) float64 {
	return MTTFHours(lib.StageFIT(Baseline(spec)).Total())
}

// totalFIT returns the Table I and Table II totals: the baseline
// pipeline's and the correction circuitry's failure rates.
func totalFIT(lib *FITLibrary, spec RouterSpec) (baseline, correction float64) {
	return lib.StageFIT(Baseline(spec)).Total(), lib.StageFIT(Correction(spec)).Total()
}

// ParallelMTTFPaper evaluates Equation 5 exactly as the paper prints and
// uses it:
//
//	MTTF = 1/λ₁ + 1/λ₂ + 1/(λ₁+λ₂)
//
// for a system of two components (failure rates λ₁, λ₂ in FIT) that works
// as long as either component works. Note the textbook expectation of
// max(T₁, T₂) for independent exponentials carries a MINUS on the third
// term (see ParallelMTTFExact); we reproduce the paper's arithmetic —
// which yields its headline 2,190,696 h and ≈6× — and report both.
func ParallelMTTFPaper(fit1, fit2 float64) float64 {
	return MTTFHours(fit1) + MTTFHours(fit2) + MTTFHours(fit1+fit2)
}

// ParallelMTTFExact returns E[max(T₁, T₂)] = 1/λ₁ + 1/λ₂ − 1/(λ₁+λ₂) for
// independent exponential lifetimes, the standard 1-out-of-2 parallel
// system MTTF (Gaver 1963, the paper's reference [17]).
func ParallelMTTFExact(fit1, fit2 float64) float64 {
	return MTTFHours(fit1) + MTTFHours(fit2) - MTTFHours(fit1+fit2)
}

// MTTFProtected returns Equation 6: the protected router's MTTF in hours,
// treating the baseline pipeline (λ₁ = Table I total) and the correction
// circuitry (λ₂ = Table II total) as a two-component parallel system,
// using the paper's Equation 5 arithmetic.
func MTTFProtected(lib *FITLibrary, spec RouterSpec) float64 {
	return ParallelMTTFPaper(totalFIT(lib, spec))
}

// MTTFProtectedExact is MTTFProtected with the exact parallel-system
// formula.
func MTTFProtectedExact(lib *FITLibrary, spec RouterSpec) float64 {
	return ParallelMTTFExact(totalFIT(lib, spec))
}

// Improvement returns Equation 7: MTTF_protected / MTTF_baseline (≈6 at
// the paper's design point).
func Improvement(lib *FITLibrary, spec RouterSpec) float64 {
	return MTTFProtected(lib, spec) / MTTFBaseline(lib, spec)
}

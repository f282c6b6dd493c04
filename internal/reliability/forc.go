// Package reliability implements the paper's reliability methodology:
// the FORC (Failure-in-time Of a Reference Circuit) TDDB model of Shin et
// al. (Equations 2–3), the router's parts list and its Sum-of-Failure-
// Rates pricing (Tables I and II), MTTF analysis (Equations 1 and 4–7)
// and the Silicon Protection Factor comparison (Section VIII, Table III).
//
// Baseline and Correction are the one place the router's structure is
// written: the FIT model here and package area's area and power model
// price the same parts.
package reliability

import "math"

// Boltzmann is the Boltzmann constant in eV/K.
const Boltzmann = 8.617385e-5

// TDDBParams are the fitting parameters of the time-dependent dielectric
// breakdown FORC model (Equation 2), taken from the experimental fits of
// Wu et al. as tabulated by Srinivasan et al., "The case for lifetime
// reliability-aware microprocessors" (ISCA 2004).
type TDDBParams struct {
	// A is the normalization constant A_TDDB. Its absolute value depends
	// on the (unpublished) reference-circuit definition; use Calibrate to
	// fix it against a known FIT-per-FET operating point.
	A float64
	// VoltageExpA and VoltageExpB are the a and b parameters of the
	// voltage acceleration term Vdd^(a − b·T).
	VoltageExpA, VoltageExpB float64
	// X, Y, Z parameterize the temperature activation term
	// exp(−(X + Y/T + Z·T) / kT), in eV, eV·K and eV/K.
	X, Y, Z float64
}

// DefaultTDDBParams returns the Srinivasan et al. fit used by the paper,
// calibrated so that one FET at Vdd = 1 V, T = 300 K and 100% duty cycle
// contributes 0.1 FIT. That calibration makes the component FIT values of
// Tables I and II come out exactly (e.g. a 117-transistor 6-bit comparator
// at 11.7 FIT).
func DefaultTDDBParams() TDDBParams {
	p := TDDBParams{
		VoltageExpA: 78,
		VoltageExpB: 0.081,
		X:           0.759,    // eV
		Y:           -66.8,    // eV·K
		Z:           -8.37e-4, // eV/K
	}
	return p.Calibrate(0.1, 1.0, 300)
}

// FORC returns the failures-in-time of the reference circuit (Equation 2)
// at supply voltage vdd (volts) and temperature t (kelvin):
//
//	FORC_TDDB = (10⁹ / A) · Vdd^(a−b·T) · e^(−(X + Y/T + Z·T)/kT)
func (p TDDBParams) FORC(vdd, t float64) float64 {
	v := math.Pow(vdd, p.VoltageExpA-p.VoltageExpB*t)
	act := math.Exp(-(p.X + p.Y/t + p.Z*t) / (Boltzmann * t))
	return 1e9 / p.A * v * act
}

// FITPerFET returns the FIT contribution of a single field-effect
// transistor (Equation 3): duty · FORC, where duty is the fraction of time
// the device is under stress.
func (p TDDBParams) FITPerFET(duty, vdd, t float64) float64 {
	return duty * p.FORC(vdd, t)
}

// Calibrate returns a copy of p with A chosen so that FITPerFET(1.0, vdd,
// t) equals target. The paper's reference point is 0.1 FIT/FET at 1 V and
// 300 K.
func (p TDDBParams) Calibrate(target, vdd, t float64) TDDBParams {
	p.A = 1
	raw := p.FITPerFET(1.0, vdd, t)
	p.A = raw / target
	return p
}

// MTTFHours converts a FIT rate (failures per 10⁹ hours) to mean time to
// failure in hours (Equation 1). It returns +Inf for a zero rate.
func MTTFHours(fit float64) float64 {
	if fit == 0 {
		return math.Inf(1)
	}
	return 1e9 / fit
}

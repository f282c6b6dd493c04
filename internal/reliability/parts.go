package reliability

import (
	"fmt"
	"math"
)

// Kind is a part's circuit family.
type Kind uint8

// The part kinds the router pipelines and the correction circuitry are
// built from.
const (
	Comparator Kind = iota
	Arbiter
	Mux
	Demux
	Register
)

// Part is one fundamental circuit block (Table I's "FC" column plus the
// correction-circuitry blocks of Table II). Size is its fan: the inputs
// of an arbiter or mux, the outputs of a demux. Width is its bits: the
// datapath of a mux or demux, the operands of a comparator, the
// flip-flops of a register. An arbiter has no width and a comparator or
// register no size.
type Part struct {
	Kind        Kind
	Size, Width int
}

func comparator(bits int) Part { return Part{Kind: Comparator, Width: bits} }
func arbiter(n int) Part       { return Part{Kind: Arbiter, Size: n} }
func mux(n, width int) Part    { return Part{Kind: Mux, Size: n, Width: width} }
func demux(n, width int) Part  { return Part{Kind: Demux, Size: n, Width: width} }
func register(bits int) Part   { return Part{Kind: Register, Width: bits} }

// The paper's component library, at the sizes its 5-port, 4-VC, 32-bit
// router uses.
var (
	Comparator6 = comparator(6) // 6-bit coordinate comparator: two per RC unit in an 8×8 mesh
	Arb4        = arbiter(4)    // 4:1 round-robin arbiter
	Arb5        = arbiter(5)    // 5:1 round-robin arbiter
	Arb20       = arbiter(20)   // 20:1 round-robin arbiter (VA stage 2)
	Mux4x1      = mux(4, 1)     // 1-bit 4:1 multiplexer (SA control path)
	Mux5x1x32   = mux(5, 32)    // 32-bit 5:1 multiplexer (one crossbar output)
	Mux2x1x32   = mux(2, 32)    // 32-bit 2:1 multiplexer (the protected crossbar's Pk mux)
	Mux2x1Ctl   = mux(2, 1)     // 1-bit 2:1 multiplexer (the SA bypass mux)
	Demux2x32   = demux(2, 32)  // 32-bit 1:2 demultiplexer (protected crossbar)
	Demux3x32   = demux(3, 32)  // 32-bit 1:3 demultiplexer (protected crossbar)
	DFFBit      = register(1)   // one D flip-flop bit (R2/VF/ID/SP/FSP, bypass default winner)
)

// calibrated overrides the generic FET models at the paper's arbiter
// and comparator sizes. With the calibrated 0.1 FIT/FET every library
// part reproduces the paper's component FIT (Comparator6 = 11.7, Arb4 =
// 7.4, Arb20 = 36.9 ≈ 36.7, Mux4x1 = 4.8, Mux5x1x32 = 204.8, DFFBit =
// 0.5, and the Table II correction totals).
var calibrated = map[Part]int{Comparator6: 117, Arb4: 74, Arb5: 93, Arb20: 369}

// Transistors returns the FET count of part p:
//
//	comparator, w bits  ≈ 19.5·w FETs
//	arbiter n:1         ≈ 18.5·n FETs
//	mux n:1, w bits     = 16·w·(n−1) FETs
//	demux 1:n, w bits   = 10·w·(n−1) FETs
//	register, w bits    = 5·w FETs
//
// except at the calibrated library sizes.
func Transistors(p Part) int {
	if n, ok := calibrated[p]; ok {
		return n
	}
	switch p.Kind {
	case Comparator:
		return int(math.Round(19.5 * float64(p.Width)))
	case Arbiter:
		return int(math.Round(18.5 * float64(p.Size)))
	case Mux:
		return 16 * p.Width * (p.Size - 1)
	case Demux:
		return 10 * p.Width * (p.Size - 1)
	case Register:
		return 5 * p.Width
	}
	panic(fmt.Sprintf("reliability: unknown part kind %d", p.Kind))
}

// String implements fmt.Stringer.
func (p Part) String() string {
	switch {
	case p.Kind == Comparator:
		return fmt.Sprintf("%d-bit comparator", p.Width)
	case p.Kind == Arbiter:
		return fmt.Sprintf("%d:1 arbiter", p.Size)
	case p == DFFBit:
		return "DFF bit"
	case p.Kind == Register:
		return fmt.Sprintf("%d-bit register", p.Width)
	}
	name := fmt.Sprintf("%d:1 mux", p.Size)
	if p.Kind == Demux {
		name = fmt.Sprintf("1:%d demux", p.Size)
	}
	if p.Width > 1 {
		name = fmt.Sprintf("%d-bit %s", p.Width, name)
	}
	return name
}

// FITLibrary prices parts in FIT under given operating conditions.
type FITLibrary struct{ perFET float64 }

// NewFITLibrary builds a FIT library from the TDDB parameters at the
// given duty cycle, supply voltage (V) and temperature (K). The paper
// evaluates at duty = 1 (continuous stress), 1 V, 300 K.
func NewFITLibrary(p TDDBParams, duty, vdd, t float64) *FITLibrary {
	return &FITLibrary{perFET: p.FITPerFET(duty, vdd, t)}
}

// DefaultFITLibrary returns the library at the paper's operating point.
func DefaultFITLibrary() *FITLibrary {
	return NewFITLibrary(DefaultTDDBParams(), 1.0, 1.0, 300)
}

// PerFET returns the FIT contribution of one transistor.
func (l *FITLibrary) PerFET() float64 { return l.perFET }

// FIT returns the FIT rate of part p: its transistor count times the
// per-FET rate (the SOFR model applied within the part).
func (l *FITLibrary) FIT(p Part) float64 {
	return float64(Transistors(p)) * l.PerFET()
}

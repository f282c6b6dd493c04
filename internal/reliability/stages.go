package reliability

import "gonoc/internal/core"

// RouterSpec describes the router whose pipeline is being priced.
type RouterSpec struct {
	// Ports is the router radix (5 for a mesh).
	Ports int
	// VCs is the number of virtual channels per input port.
	VCs int
	// MeshNodes sizes the RC comparators (an 8×8 mesh needs 6-bit
	// destination comparison).
	MeshNodes int
	// FlitBits is the datapath width (32 in the paper).
	FlitBits int
}

// PaperSpec returns the paper's evaluation point: a 5×5 router with 4 VCs
// in an 8×8 mesh with 32-bit flits.
func PaperSpec() RouterSpec {
	return RouterSpec{Ports: 5, VCs: 4, MeshNodes: 64, FlitBits: 32}
}

// log2ceil returns ceil(log2(n)) with a minimum of 1 bit.
func log2ceil(n int) int {
	b := 1
	for (1 << b) < n {
		b++
	}
	return b
}

// Item is N identical parts.
type Item struct {
	N    int
	Part Part
}

// Inventory is a design's parts list, stage by stage.
type Inventory struct {
	RC, VA, SA, XB []Item
}

// Baseline returns the baseline pipeline's parts, the structure of
// Table I:
//
//	RC: 2 comparators per input port
//	VA: P·V·P stage-1 V:1 arbiters + P·V stage-2 (P·V):1 arbiters
//	SA: P² V:1 control muxes + P stage-1 V:1 arbiters + P stage-2 P:1
//	    arbiters
//	XB: P flit-wide P:1 multiplexers
func Baseline(spec RouterSpec) Inventory {
	p, v := spec.Ports, spec.VCs
	return Inventory{
		RC: []Item{{2 * p, comparator(log2ceil(spec.MeshNodes))}},
		VA: []Item{{p * v * p, arbiter(v)}, {p * v, arbiter(p * v)}},
		SA: []Item{{p * p, mux(v, 1)}, {p, arbiter(v)}, {p, arbiter(p)}},
		XB: []Item{{p, mux(p, spec.FlitBits)}},
	}
}

// Correction returns the parts the protected router adds to each
// stage, the structure of Table II:
//
//	RC: a duplicate RC unit per port (2·P comparators)
//	VA: per input VC, the R2 (log₂P bits), VF (1 bit) and ID (log₂V bits)
//	    state fields
//	SA: P bypass 2:1 muxes + P default-winner registers (log₂V bits) +
//	    per input VC the SP (log₂P bits) and FSP (1 bit) fields
//	XB: P flit-wide 2:1 output muxes + (P−2) 1:2 demuxes + one 1:3
//	    demux (for P = 5: three 1:2 and one 1:3, Figure 6)
func Correction(spec RouterSpec) Inventory {
	p, v, w := spec.Ports, spec.VCs, spec.FlitBits
	portBits, vcBits := log2ceil(p), log2ceil(v)
	return Inventory{
		RC: []Item{{2 * p, comparator(log2ceil(spec.MeshNodes))}},
		VA: []Item{{1, register(p * v * (portBits + 1 + vcBits))}},
		SA: []Item{{p, mux(2, 1)}, {1, register(p*vcBits + p*v*(portBits+1))}},
		XB: []Item{{p, mux(2, w)}, {p - 2, demux(2, w)}, {1, demux(3, w)}},
	}
}

// PerStage holds one quantity per pipeline stage: FIT, gate
// equivalents, power or picoseconds.
type PerStage struct {
	RC, VA, SA, XB float64
}

// Total returns the sum across the four stages (for FIT, the SOFR
// total).
func (s PerStage) Total() float64 { return s.RC + s.VA + s.SA + s.XB }

// Stage returns one stage's value by ID. It panics for an unknown stage.
func (s PerStage) Stage(id core.StageID) float64 {
	return [...]float64{core.StageRC: s.RC, core.StageVA: s.VA, core.StageSA: s.SA, core.StageXB: s.XB}[id]
}

// Price returns each stage's cost: price summed over the stage's items
// in inventory order.
func (inv Inventory) Price(price func(Item) float64) PerStage {
	sum := func(items []Item) (s float64) {
		for _, it := range items {
			s += price(it)
		}
		return s
	}
	return PerStage{RC: sum(inv.RC), VA: sum(inv.VA), SA: sum(inv.SA), XB: sum(inv.XB)}
}

// StageFIT prices inv in FIT under the SOFR model: an item's rate is
// its total FET count times the per-FET rate. Baseline gives Table I,
// Correction Table II.
func (l *FITLibrary) StageFIT(inv Inventory) PerStage {
	per := l.PerFET()
	return inv.Price(func(it Item) float64 { return float64(it.N*Transistors(it.Part)) * per })
}

package noc_test

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// Example_oneFaultPerStage runs the paper's Section IV scenario on a
// live 4×4 mesh: one permanent fault per pipeline stage lands in router
// 5, one at a time, each followed by 2,000 cycles of uniform traffic.
// Each row gives the packets delivered in that window and whether router
// 5 still counts as functional; the protected router also reports which
// Section V mechanism took over from each broken unit. The baseline
// router stops being functional at its first fault, although the other
// fifteen routers keep the network delivering. Last, the failure
// boundary of Section VIII-D: the protected router fails only when both
// paths of one crossbar output break.
func Example_oneFaultPerStage() {
	for _, ft := range []bool{true, false} {
		rc := router.DefaultConfig()
		rc.FaultTolerant = ft
		rc.Classes = 1
		src := traffic.NewSynthetic(16, 0.03, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.5), 7)
		n := noc.MustNew(noc.Config{Width: 4, Height: 4, Router: rc, Workers: 1}, src)
		r := n.Router(5)
		fmt.Printf("protected=%v\n", ft)
		var prev uint64
		for _, step := range []struct {
			name   string
			inject func()
		}{
			{"no faults", func() {}},
			{"RC primary, West", func() { r.SetRCFault(topology.West, 0, true) }},
			{"VA1 arbiter set, West/VC0", func() { r.SetVA1Fault(topology.West, 0, true) }},
			{"SA1 arbiter, West", func() { r.SetSA1Fault(topology.West, true) }},
			{"XB mux, East", func() { r.SetXBFault(topology.East, true) }},
		} {
			step.inject()
			n.Run(2_000)
			got := n.Stats().Ejected()
			fmt.Printf("  %-26s delivered %4d  functional=%v\n", step.name, got-prev, r.Functional())
			prev = got
		}
		if ft {
			c := r.Counters
			fmt.Printf("  duplicate RC uses %d, VA borrows %d, SA bypass grants %d (%d VC transfers), XB secondary %d\n",
				c.RCDuplicateUses, c.VA1Borrows, c.SABypassGrants, c.SATransfers, c.XBSecondary)
		}
	}

	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	r := core.MustNew(4, topology.NewMesh(3, 3), rc)
	fmt.Println("failure boundary:")
	fmt.Printf("  fresh router         functional=%v\n", r.Functional())
	r.SetXBFault(topology.East, true)
	fmt.Printf("  XB mux, East         functional=%v\n", r.Functional())
	r.SetXBSecondaryFault(topology.East, true)
	fmt.Printf("  XB secondary, East   functional=%v\n", r.Functional())
	// Output:
	// protected=true
	//   no faults                  delivered  921  functional=true
	//   RC primary, West           delivered  952  functional=true
	//   VA1 arbiter set, West/VC0  delivered  921  functional=true
	//   SA1 arbiter, West          delivered  905  functional=true
	//   XB mux, East               delivered  974  functional=true
	//   duplicate RC uses 194, VA borrows 34, SA bypass grants 331 (70 VC transfers), XB secondary 192
	// protected=false
	//   no faults                  delivered  921  functional=true
	//   RC primary, West           delivered  888  functional=false
	//   VA1 arbiter set, West/VC0  delivered  857  functional=false
	//   SA1 arbiter, West          delivered  839  functional=false
	//   XB mux, East               delivered  871  functional=false
	// failure boundary:
	//   fresh router         functional=true
	//   XB mux, East         functional=true
	//   XB secondary, East   functional=false
}

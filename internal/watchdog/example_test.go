package watchdog_test

import (
	"fmt"

	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
	"gonoc/internal/watchdog"
)

// Example_faultLifecycle watches a protected 4×4 mesh with a 250-cycle
// watchdog through three phases of 2,000 cycles each. First a storm of
// transient faults, each lasting 8 cycles: the watchdog reports nothing.
// Then permanent faults accumulate, only on sites that leave every
// router functional: still no report. Last, both RC units of router 5's
// West port break: the router is no longer functional, and the watchdog
// localizes each of that port's VCs to router 5's RC stage.
func Example_faultLifecycle() {
	const phase = 2_000
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Classes = 1
	src := traffic.NewSynthetic(16, 0.015, traffic.Uniform(16), traffic.Bimodal(1, 5, 0.6), 99)
	n := noc.MustNew(noc.Config{Width: 4, Height: 4, Router: rc, Workers: 1}, src)
	mon := watchdog.New(n, 250)

	storm := fault.NewTransientInjector(n, 0.002, 8, 7)
	n.Run(phase)
	storm.Rate = 0
	fmt.Printf("transient strikes %d, delivered %d, suspects %d\n",
		storm.Strikes, n.Stats().Ejected(), len(mon.Suspects()))

	inj := fault.NewInjector(n, 800, 13, true)
	n.Run(phase)
	fmt.Printf("permanent faults %d, functional=%v, suspects %d\n",
		len(inj.Injected()), n.Functional(), len(mon.Suspects()))

	victim := n.Router(5)
	victim.SetRCFault(topology.West, 0, true)
	victim.SetRCFault(topology.West, 1, true)
	n.Run(phase)
	fmt.Printf("router 5 functional=%v\n", victim.Functional())
	for _, s := range mon.SuspectsAt(5) {
		fmt.Println(s)
	}
	// Output:
	// transient strikes 69, delivered 489, suspects 0
	// permanent faults 200, functional=true, suspects 0
	// router 5 functional=false
	// router 5 W/vc1: RC stage stuck since cycle 4160 (detected 4410)
	// router 5 W/vc2: RC stage stuck since cycle 4236 (detected 4486)
	// router 5 W/vc0: RC stage stuck since cycle 4237 (detected 4487)
	// router 5 W/vc3: RC stage stuck since cycle 4399 (detected 4649)
}
